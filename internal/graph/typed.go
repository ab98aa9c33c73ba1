package graph

// label is a small edge-type identifier. DefaultLabel (0) is the type of
// every edge ingested through the untyped paths, so a store upgraded to
// the property layer reads its pre-existing edges back unchanged.
type label = uint16

// DefaultLabel is the type of untyped edges.
const DefaultLabel label = 0

// PropSet is one vertex-property write: set property Key of vertex V to
// Val. Properties are last-write-wins signed 64-bit scalars keyed by a
// small property-key id (the property column model of DESIGN.md §13).
type PropSet struct {
	V   VID
	Key uint16
	Val int64
}
