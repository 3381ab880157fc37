package server

import (
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
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "Dist", Workers: 1}},
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
// and options.partitionRegions/partitionHalo are unknown fields.
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
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/report", nil, &rep, http.StatusOK)
	if rep.Snapshot.Version != 1 {
		t.Errorf("snapshot version = %d after rejected solves, want 1", rep.Snapshot.Version)
	}
}
