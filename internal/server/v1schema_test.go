package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestSolveSchemaV1 is the table-driven contract test for the v1 solve
// schema: every knob is nested under options, and algorithm aliases
// echo their canonical names.
func TestSolveSchemaV1(t *testing.T) {
	cases := []struct {
		name          string
		req           SolveRequest
		wantAlgorithm string
		wantPartition bool
	}{
		{
			name:          "canonical nested options",
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "Dist"}},
			wantAlgorithm: "Dist",
		},
		{
			name:          "empty request defaults to Appx",
			req:           SolveRequest{Chunks: 3},
			wantAlgorithm: "Appx",
		},
		{
			name:          "legacy alias parses to canonical name",
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "hopcount"}},
			wantAlgorithm: "Hopc",
		},
		{
			name:          "canonical options.partition carries no note",
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Partition: &PartitionSpec{Regions: 2}}},
			wantAlgorithm: "Appx",
			wantPartition: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newTestClient(t, Options{})
			reg := c.registerGrid(4, 4, 5)
			var resp SolveResponse
			c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", tc.req, &resp, http.StatusOK)
			if resp.Algorithm != tc.wantAlgorithm {
				t.Errorf("algorithm = %q, want %q", resp.Algorithm, tc.wantAlgorithm)
			}
			if (resp.Partition != nil) != tc.wantPartition {
				t.Errorf("partition report present = %v, want %v", resp.Partition != nil, tc.wantPartition)
			}
			if resp.Version != 2 || len(resp.Holders) != 3 {
				t.Errorf("response not a committed 3-chunk v2 placement: %+v", resp)
			}
		})
	}
}

// TestSolveSchemaErrors checks schema violations answer the typed error
// envelope. Top-level algorithm/workers/partitionRegions/partitionHalo
// and options.workers/partitionRegions/partitionHalo are unknown fields.
func TestSolveSchemaErrors(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	cases := []struct {
		name string
		body any
		code string
		// unknown, when set, is the field the error message must name.
		unknown string
	}{
		{"unknown algorithm", SolveRequest{Options: &SolveOptions{Algorithm: "lru"}}, CodeBadRequest, ""},
		{"unknown flat algorithm", map[string]any{"algorithm": "banana"}, CodeBadRequest, "algorithm"},
		{"unknown field", map[string]any{"algorithmm": "appx"}, CodeBadRequest, "algorithmm"},
		{"negative chunks", SolveRequest{Chunks: -1}, CodeBadRequest, ""},
		{"partition on non-appx", SolveRequest{
			Options: &SolveOptions{Algorithm: "dist", Partition: &PartitionSpec{Regions: 2}},
		}, CodeBadRequest, ""},
		{"flat algorithm removed", map[string]any{"chunks": 3, "algorithm": "cont"}, CodeBadRequest, "algorithm"},
		{"flat workers removed", map[string]any{"chunks": 3, "workers": 1}, CodeBadRequest, "workers"},
		{"flat algorithm beside nested options removed", map[string]any{
			"chunks": 3, "algorithm": "dist", "options": map[string]any{"algorithm": "appx"},
		}, CodeBadRequest, "algorithm"},
		{"flat partitionRegions removed", map[string]any{"chunks": 3, "partitionRegions": 2}, CodeBadRequest, "partitionRegions"},
		{"flat partitionHalo removed", map[string]any{"chunks": 3, "partitionHalo": 1}, CodeBadRequest, "partitionHalo"},
		{"options.workers removed", map[string]any{
			"chunks": 3, "options": map[string]any{"workers": 4},
		}, CodeBadRequest, "workers"},
		{"options.partitionRegions removed", map[string]any{
			"chunks": 3, "options": map[string]any{"partitionRegions": 2},
		}, CodeBadRequest, "partitionRegions"},
		{"options.partitionHalo removed", map[string]any{
			"chunks": 3, "options": map[string]any{"partitionHalo": 1},
		}, CodeBadRequest, "partitionHalo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve", tc.body, http.StatusBadRequest, tc.code)
			if tc.unknown != "" && !strings.Contains(msg, fmt.Sprintf("unknown field %q", tc.unknown)) {
				t.Errorf("message %q does not name unknown field %q", msg, tc.unknown)
			}
		})
	}
	// No rejected request committed a placement.
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Version != 1 {
		t.Errorf("snapshot version = %d after rejected solves, want 1", rep.Snapshot.Version)
	}
}

// TestRequestsSchemaErrors is the contract test for the requests batch
// schema: malformed batches answer the typed error envelope and leave
// the demand subsystem untouched, and bodies that differ from the
// canonical encoding only in key case, key order or whitespace decode
// to the same batch.
func TestRequestsSchemaErrors(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	path := "/v1/topologies/" + reg.ID + "/requests"
	var first RequestsResponse
	c.doJSON("POST", path, []byte(`{"events":[{"node":1,"chunk":0}],"init":{"chunks":4}}`), &first, http.StatusOK)

	over := bytes.Repeat([]byte(`{"node":1,"chunk":2},`), maxRequestBatch+1)
	cases := []struct {
		name, body string
		// want is a substring the error message must contain.
		want string
	}{
		{"unknown top-level field", `{"events":[{"node":1,"chunk":0}],"weight":2}`, `unknown field "weight"`},
		{"unknown event field", `{"events":[{"node":1,"chunk":0,"weight":2}]}`, `unknown field "weight"`},
		{"events as a string", `{"events":"1,0"}`, "cannot unmarshal string"},
		{"events null", `{"events":null}`, "empty events batch"},
		{"events empty", `{"events":[]}`, "empty events batch"},
		{"float id", `{"events":[{"node":1.5,"chunk":0}]}`, "cannot unmarshal number 1.5"},
		{"exponent id", `{"events":[{"node":1e2,"chunk":0}]}`, "cannot unmarshal number 1e2"},
		{"quoted id", `{"events":[{"node":"1","chunk":0}]}`, "cannot unmarshal string"},
		{"leading zero", `{"events":[{"node":01,"chunk":0}]}`, "invalid character '1'"},
		{"int64 overflow", `{"events":[{"node":9223372036854775808,"chunk":0}]}`, "cannot unmarshal number 9223372036854775808"},
		{"truncated", `{"events":[{"node":1,"chunk":0}`, "unexpected EOF"},
		{"trailing data", `{"events":[{"node":1,"chunk":0}]} {}`, "trailing data after JSON body"},
		{"8,193 events", `{"events":[` + strings.TrimSuffix(string(over), ",") + `]}`, "batch has 8193 events, limit is 8192"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := c.wantError("POST", path, []byte(tc.body), http.StatusBadRequest, CodeBadRequest)
			if !strings.Contains(msg, tc.want) {
				t.Errorf("message %q does not contain %q", msg, tc.want)
			}
		})
	}
	// No rejected batch reached the demand subsystem.
	var info ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &info, http.StatusOK)
	if info.Demand == nil || info.Demand.Requests != first.Demand.Requests {
		t.Fatalf("demand after rejected batches = %+v, want %d requests", info.Demand, first.Demand.Requests)
	}

	// Twins of a canonical batch count the same batch: reordered and
	// capitalised keys through the strict decoder, extra whitespace
	// through the hand parser.
	canonical := `{"events":[{"node":3,"chunk":1},{"node":15,"chunk":2},{"node":0,"chunk":3}]}`
	var want RequestsResponse
	c.doJSON("POST", path, []byte(canonical), &want, http.StatusOK)
	for name, body := range map[string]string{
		"reordered keys":   `{"events":[{"chunk":1,"node":3},{"chunk":2,"node":15},{"chunk":3,"node":0}]}`,
		"capitalised key":  `{"events":[{"Node":3,"chunk":1},{"node":15,"Chunk":2},{"NODE":0,"chunk":3}]}`,
		"extra whitespace": " {\n\t\"events\" : [ {\"node\": 3, \"chunk\": 1},\r\n{ \"node\":15 ,\"chunk\":2 } , {\"node\":0,\"chunk\":3}\t] }\n",
	} {
		var got RequestsResponse
		c.doJSON("POST", path, []byte(body), &got, http.StatusOK)
		if got.Batch != want.Batch {
			t.Errorf("%s: batch %+v, canonical twin %+v", name, got.Batch, want.Batch)
		}
	}
}
