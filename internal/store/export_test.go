package store

import (
	"math"

	"baton/internal/keyspace"
)

// CheckInvariants exposes the internal structural checker to tests.
func (s *Store) CheckInvariants() error { return s.checkInvariants() }

// LeafKeys returns the keys of every leaf in chain order, empty leaves
// included.
func (s *Store) LeafKeys() [][]keyspace.Key {
	var out [][]keyspace.Key
	for n := s.seek(math.MinInt64); n != nil; n = n.next {
		out = append(out, n.keys)
	}
	return out
}
