package server

// EdgesRequest is the body of POST/DELETE /v1/edges.
type EdgesRequest struct {
	Edges []edgeJSON `json:"edges"`
}
