// Package obs is the cluster's flight recorder: a dependency-free
// observability layer the live message path reports into and every
// higher layer (the benchmark, the tests, the facade) reads from.
//
// It has three pieces, designed around one constraint — the data plane
// must never take a lock or allocate on behalf of instrumentation:
//
//   - The metrics registry (registry.go). Each peer owns a PeerMetrics
//     block of per-message-kind counters (delivered / spilled / refused),
//     queue depth and high-water gauges, and streaming histograms for
//     queue wait and handle time. The blocks are the shards: writes are
//     sharded by peer and kind exactly as the peer queues already shard
//     deliveries, every hot counter sits on its own cache line so two
//     peers' blocks never false-share, and a snapshot is a plain atomic
//     sweep — no locks, no stop-the-world.
//
//   - Request tracing (trace.go). A Trace is an optional context a
//     sampled request carries through the overlay; each hop appends
//     (peer, kind, tree level, queue wait, handle time). Sampling is
//     1-in-N with N settable at runtime; with sampling off the only cost
//     on the request path is one atomic load, and nothing allocates.
//
//   - The structural-op journal (journal.go). A fixed-size ring buffer
//     of membership events — join, depart, kill, recover, balance — with
//     per-phase durations and outcomes, so "what did the overlay just do
//     to itself" is answerable after the fact without logs.
//
// The histograms extend internal/stats.Histogram's cached-sort design to
// a concurrent setting: where stats.Histogram keeps exact map buckets and
// re-sorts them lazily, the streaming Histogram here fixes the bucket
// layout up front (exact below 128, power-of-two above), which makes the
// sorted order free and every operation a single atomic — the same
// read-mostly percentile query, minus the lock the map would need.
package obs
