package prop

import "fmt"

// Predicate operators accepted by Filter.Op.
const (
	opNone   = ""
	opEq     = "eq"
	opNe     = "ne"
	opLt     = "lt"
	opLe     = "le"
	opGt     = "gt"
	OpGe     = "ge"
	opExists = "exists"
)

// Filter is the pushdown predicate of a typed traversal: an edge is
// expanded only when its label is in Types (empty: any) AND its
// destination vertex satisfies the property predicate (Op empty: any).
// The view layer applies the filter while decoding, so a filtered k-hop
// never materializes — or charges media reads for — the pruned frontier.
type Filter struct {
	// Types is the accepted label-id set (nil/empty: all labels).
	Types []uint16
	// Key/Op/Val predicate the destination vertex's property Key.
	Key uint16
	Op  string
	Val int64
}

// Validate rejects unknown operators before a traversal starts.
func (f Filter) Validate() error {
	switch f.Op {
	case opNone, opEq, opNe, opLt, opLe, opGt, OpGe, opExists:
		return nil
	}
	return fmt.Errorf("prop: unknown filter op %q", f.Op)
}

// MatchLabel reports whether an edge label passes the type set.
func (f Filter) MatchLabel(lbl uint16) bool {
	if len(f.Types) == 0 {
		return true
	}
	for _, t := range f.Types {
		if t == lbl {
			return true
		}
	}
	return false
}

// MatchVertex reports whether a vertex passes the property predicate,
// reading its property through get (ok=false: property unset; an unset
// property fails every predicate except none).
func (f Filter) MatchVertex(get func(key uint16) (int64, bool)) bool {
	if f.Op == opNone {
		return true
	}
	val, ok := get(f.Key)
	if !ok {
		return false
	}
	switch f.Op {
	case opExists:
		return true
	case opEq:
		return val == f.Val
	case opNe:
		return val != f.Val
	case opLt:
		return val < f.Val
	case opLe:
		return val <= f.Val
	case opGt:
		return val > f.Val
	case OpGe:
		return val >= f.Val
	}
	return false
}
