// Package api is the discserve wire contract: the build parameters and the
// request and response bodies that workers, coordinators, the retrying
// client and the session snapshot exchange. Each body is defined here once;
// tuples travel as one JSON number or string per attribute (see
// data.TupleToJSON and data.TupleFromJSON).
//
// The package is a leaf: it imports nothing else from this repository, so
// every layer that speaks the wire can depend on it.
package api

// DefaultMaxQueue is a worker's default per-session admission queue bound,
// and so the largest /repair batch a default worker admits: a client with
// more tuples sends them in chunks of at most this many.
const DefaultMaxQueue = 256

// BuildParams are the requested build parameters of one session. The JSON
// tags are also the snapshot hint's "params" record, so changing one
// changes the snapshot format.
type BuildParams struct {
	// Eps and Eta are the distance constraints; non-positive values are
	// determined automatically from the Poisson model (§2.1.2).
	Eps float64 `json:"eps"`
	Eta int     `json:"eta"`
	// Kappa bounds adjusted attributes per save (≤ 0: unrestricted).
	Kappa int `json:"kappa"`
	// MaxNodes bounds the search nodes per save (≤ 0: unlimited).
	MaxNodes int `json:"max_nodes"`
	// Seed feeds the parameter-determination sampling (and, for table1
	// sources, the generator).
	Seed int64 `json:"seed"`
	// Index names the neighbor index kind: "" or "auto" picks one;
	// "brute", "grid", "kd" or "vp" force one. Added with mutable sessions:
	// snapshots written before it decode with "".
	Index string `json:"index,omitempty"`
}

// CreateRequest is the POST /v1/datasets body: exactly one source (CSV,
// Path or Table1) plus the build parameters.
type CreateRequest struct {
	// Name labels the session (defaults to the source).
	Name string `json:"name,omitempty"`
	// CSV is an inline dataset in the disccli CSV dialect.
	CSV string `json:"csv,omitempty"`
	// Path loads a dataset file on the server host (CSV, or dataset JSON
	// with its own (ε, η) defaults). Path loads are cached: same path and
	// params → same session.
	Path string `json:"path,omitempty"`
	// Table1 instantiates a synthetic Table 1 dataset by name, at Scale
	// (default 1) with BuildParams.Seed.
	Table1 string  `json:"table1,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	BuildParams
}

// DetectRequest is the /detect body.
type DetectRequest struct {
	Tuples [][]any `json:"tuples"`
	// Member declares the query tuples to be rows of the session's dataset
	// (a remote client re-screening its own data): each tuple's stored copy
	// is excluded from its neighbor count, matching detection semantics.
	// Without it a member tuple counts itself and can pass the η threshold
	// spuriously.
	Member bool `json:"member,omitempty"`
}

// DetectResult is one tuple's screening answer. Neighbors is the saturated
// count min(|D_ε|, η); a coordinator marks a lost tuple with -1.
type DetectResult struct {
	Neighbors int  `json:"neighbors"`
	Outlier   bool `json:"outlier"`
}

// DetectResponse is the /detect answer: the session's resolved constraints
// and one result per query tuple.
type DetectResponse struct {
	Eps     float64        `json:"eps"`
	Eta     int            `json:"eta"`
	Results []DetectResult `json:"results"`
}

// TupleRequest carries one tuple: the /save body, and the body of
// POST .../tuples (insert) and PUT .../tuples/{idx} (update).
type TupleRequest struct {
	Tuple     []any `json:"tuple"`
	TimeoutMS int   `json:"timeout_ms,omitempty"`
}

// RepairRequest is the /repair body.
type RepairRequest struct {
	Tuples    [][]any `json:"tuples"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// Adjustment is one repaired tuple: the /save answer and one /repair
// entry. Cost, Tuple and Adjusted are set only for saved tuples, since an
// unsaved adjustment's +Inf cost is not a JSON value.
type Adjustment struct {
	Saved     bool     `json:"saved"`
	Natural   bool     `json:"natural"`
	Exhausted bool     `json:"exhausted"`
	Cost      float64  `json:"cost"`
	Tuple     []any    `json:"tuple,omitempty"`
	Adjusted  []string `json:"adjusted,omitempty"`
	Nodes     int      `json:"nodes"`
}

// RepairResponse is the /repair answer: one Adjustment per request tuple
// plus the tallies.
type RepairResponse struct {
	Adjustments []Adjustment `json:"adjustments"`
	Saved       int          `json:"saved"`
	Natural     int          `json:"natural"`
	Exhausted   int          `json:"exhausted"`
}

// MutateResponse is the answer of a tuple insert, update or delete: the
// affected logical row handle, the live totals after the mutation, and the
// incremental-maintenance footprint.
type MutateResponse struct {
	Op string `json:"op"`
	// Index is the affected logical row: the new row's handle for
	// insert, the addressed row for update/delete. Handles are stable
	// across every mutation (deletes leave holes, updates keep the
	// handle), but not across a server restart after deletes — the
	// snapshot stores the live rows reindexed densely.
	Index int `json:"index"`
	// Tuples/Inliers/Outliers are the live totals after the mutation.
	Tuples   int `json:"tuples"`
	Inliers  int `json:"inliers"`
	Outliers int `json:"outliers"`
	// Flipped counts existing tuples whose inlier/outlier status crossed
	// η; Touched counts the tuples whose neighbor counts were
	// re-examined (the ε-balls of the old and new values).
	Flipped int `json:"flipped"`
	Touched int `json:"touched"`
	// Neighbors and Outlier describe the inserted/updated tuple itself
	// (absent for delete).
	Neighbors int  `json:"neighbors"`
	Outlier   bool `json:"outlier"`
}

// ErrorJSON is the uniform body of every error answer, worker and
// coordinator alike.
type ErrorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}
