package core

import (
	"fmt"
	"testing"

	"baton/internal/keyspace"
)

// testView builds a View from link specs; a zero ID stands for a nil link.
func testView(parent Link, children []Link, adj [2]Link, rt [2][]Link) View {
	l := func(s Link) *Link {
		if s.ID == NoPeer {
			return nil
		}
		return &s
	}
	v := View{Parent: l(parent), Adj: [2]*Link{l(adj[Left]), l(adj[Right])}}
	for _, c := range children {
		v.Children = append(v.Children, l(c))
	}
	for s := range rt {
		for _, e := range rt[s] {
			v.RT[s] = append(v.RT[s], l(e))
		}
	}
	return v
}

// TestForwardCandidates pins the order ForwardCandidates' doc comment
// states, for a key left of, inside and right of the peer's range, at
// fanout 2 and 4, with empty child slots and routing-table entries: a nil
// link in the result reads as NoPeer (0) below.
func TestForwardCandidates(t *testing.T) {
	self := keyspace.Range{Lower: 100, Upper: 200}
	// Fanout 2: the right child slot and one entry on each side are empty.
	v2 := testView(
		Link{1, 200, 300},
		[]Link{{2, 50, 100}, {}},
		[2]Link{{4, 90, 100}, {5, 200, 210}},
		[2][]Link{
			{{6, 60, 90}, {}, {7, 10, 20}},
			{{8, 210, 250}, {9, 300, 400}, {}},
		})
	// Fanout 4: slot 1 and one entry on each side are empty.
	v4 := testView(
		Link{15, 300, 310},
		[]Link{{11, 10, 20}, {}, {13, 60, 80}, {14, 250, 260}},
		[2]Link{{16, 90, 100}, {17, 200, 220}},
		[2][]Link{
			{{18, 80, 90}, {}, {20, 30, 40}},
			{{21, 220, 240}, {22, 400, 500}, {}},
		})
	for _, tc := range []struct {
		name string
		v    *View
		key  keyspace.Key
		want []PeerID
	}{
		// Right: entries not past the key (farthest first), last child,
		// right adjacent; then parent, overshooting entries, other
		// children from slot m-2 down, left adjacent, left table (empty
		// entries included).
		{"m=2/right", &v2, 320, []PeerID{9, 8, 0, 5, 1, 2, 4, 6, 0, 7}},
		{"m=2/right-overshoot", &v2, 250, []PeerID{8, 0, 5, 1, 9, 2, 4, 6, 0, 7}},
		{"m=4/right", &v4, 450, []PeerID{22, 21, 14, 17, 15, 13, 0, 11, 16, 18, 0, 20}},
		{"m=4/right-overshoot", &v4, 300, []PeerID{21, 14, 17, 15, 22, 13, 0, 11, 16, 18, 0, 20}},
		// Left or inside: entries whose upper bound exceeds the key
		// (farthest first), children from slot m-2 down, left adjacent;
		// then parent, the other left entries, last child, right adjacent,
		// right table.
		{"m=2/left", &v2, 50, []PeerID{6, 2, 4, 1, 7, 0, 5, 8, 9, 0}},
		{"m=2/inside", &v2, 150, []PeerID{2, 4, 1, 7, 6, 0, 5, 8, 9, 0}},
		{"m=4/left", &v4, 35, []PeerID{20, 18, 13, 0, 11, 16, 15, 14, 17, 21, 22, 0}},
		{"m=4/inside", &v4, 150, []PeerID{13, 0, 11, 16, 15, 20, 18, 14, 17, 21, 22, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf [48]*Link
			var got []PeerID
			for _, l := range ForwardCandidates(tc.v, self, tc.key, buf[:0]) {
				if l == nil {
					got = append(got, NoPeer)
				} else {
					got = append(got, l.ID)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("key %d: candidates %v, want %v", tc.key, got, tc.want)
			}
		})
	}
	allocs := testing.AllocsPerRun(100, func() {
		var buf [48]*Link
		if len(ForwardCandidates(&v4, self, 450, buf[:0])) != 12 {
			t.Fatal("wrong candidate count")
		}
	})
	if allocs != 0 {
		t.Fatalf("ForwardCandidates into a stack buffer allocated %.1f times per call, want 0", allocs)
	}
}
