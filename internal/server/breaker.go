package server

import "repro/internal/splitmix"

// The ingest circuit breaker moved to internal/cluster: failure shedding
// is a property of one shard, not of the HTTP frontend. What stays here
// is the retry-delay jitter of the 429 responses.

// retryAfterSecs maps a request sequence number to a deterministic
// pseudo-random Retry-After of 1, 2, or 3 seconds (splitmix64 finalizer),
// spreading shed writers' retries instead of synchronizing them on one
// fixed delay.
func retryAfterSecs(seq uint64) int {
	return 1 + int(splitmix.Mix(seq)%3)
}
