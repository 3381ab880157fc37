package dist

// Message kinds exactly mirror TABLE II of the paper.
const (
	// KindNPI announces a new chunk awaiting caching (broadcast flood
	// from the producer, accumulating path contention cost).
	KindNPI = "NPI"
	// KindCC is the contention-collection request (k-hop local).
	KindCC = "CC"
	// KindCCResp carries a node's contention info back to the collector.
	// (The paper folds this into CC; it is counted separately here so the
	// accounting is explicit.)
	KindCCResp = "CCR"
	// KindTight asks "can I get data from you?" (bid covers contention).
	KindTight = "TIGHT"
	// KindSpan asks "can you fetch data for me?" (relay bid covers cost).
	KindSpan = "SPAN"
	// KindFreeze tells a node where to obtain the chunk and stops its
	// bidding.
	KindFreeze = "FREEZE"
	// KindNAdmin informs a candidate's supporters that it became an
	// ADMIN caching node (local).
	KindNAdmin = "NADMIN"
	// KindBAdmin announces a new ADMIN network-wide (broadcast flood,
	// accumulating path contention cost).
	KindBAdmin = "BADMIN"
)

// npi floods the new-chunk announcement; Accum is the accumulated node
// contention weight along the flood path including the sender.
type npi struct {
	Producer int
	Accum    float64
}

func (npi) Kind() string { return KindNPI }

// cc requests contention information within the hop limit.
type cc struct{}

func (cc) Kind() string { return KindCC }

// ccResp reports the responder's contention weight, storage availability
// and adjacency so the collector can evaluate local path costs. Neighbors
// is the graph's own adjacency row, shared by every receiver: read-only.
type ccResp struct {
	Weight     float64
	HasStorage bool
	Neighbors  []int
}

func (ccResp) Kind() string { return KindCCResp }

// tight is the "can I get data from you?" request.
type tight struct{}

func (tight) Kind() string { return KindTight }

// span is the "can you fetch data for me?" request; Paid carries the
// sender's surplus bid toward the candidate's opening (fairness) cost.
type span struct {
	Paid float64
}

func (span) Kind() string { return KindSpan }

// freeze points the receiver at the node it should obtain the chunk from.
type freeze struct {
	Admin int
}

func (freeze) Kind() string { return KindFreeze }

// nadmin informs supporters that the sender became an ADMIN.
type nadmin struct{}

func (nadmin) Kind() string { return KindNAdmin }

// badmin floods a new ADMIN announcement with accumulated path cost.
type badmin struct {
	Admin int
	Accum float64
}

func (badmin) Kind() string { return KindBAdmin }
