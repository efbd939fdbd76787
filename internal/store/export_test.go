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

// LeafBuffer returns the value buffer of the leaf that holds key, or would.
func (s *Store) LeafBuffer(key keyspace.Key) []byte { return s.seek(key).vals }
