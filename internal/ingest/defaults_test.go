package ingest

import (
	"testing"
	"time"
)

// TestConfigWithDefaults pins the defaulting rules: zero and negative
// fields take the documented defaults, set fields survive untouched.
func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "zero value takes every default",
			in:   Config{},
			want: Config{QueueCap: 1 << 16, BatchEdges: 4096, Linger: 2 * time.Millisecond},
		},
		{
			name: "negative fields are treated as unset",
			in:   Config{QueueCap: -1, BatchEdges: -4096, Linger: -time.Second},
			want: Config{QueueCap: 1 << 16, BatchEdges: 4096, Linger: 2 * time.Millisecond},
		},
		{
			name: "already-set fields survive",
			in:   Config{QueueCap: 128, BatchEdges: 16, Linger: time.Microsecond},
			want: Config{QueueCap: 128, BatchEdges: 16, Linger: time.Microsecond},
		},
		{
			name: "partial: only the unset fields default",
			in:   Config{BatchEdges: 512},
			want: Config{QueueCap: 1 << 16, BatchEdges: 512, Linger: 2 * time.Millisecond},
		},
		{
			name: "optional periods and hooks stay zero (disabled)",
			in:   Config{FlushEvery: 0, ScrubEvery: 0, BatchDelay: 0},
			want: Config{QueueCap: 1 << 16, BatchEdges: 4096, Linger: 2 * time.Millisecond},
		},
		{
			name: "set periods pass through",
			in:   Config{FlushEvery: time.Second, ScrubEvery: time.Minute, BatchDelay: time.Millisecond},
			want: Config{QueueCap: 1 << 16, BatchEdges: 4096, Linger: 2 * time.Millisecond,
				FlushEvery: time.Second, ScrubEvery: time.Minute, BatchDelay: time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults(); got != tc.want {
				t.Fatalf("withDefaults(%+v)\n got %+v\nwant %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestAdaptiveConfigWithDefaults does the same for the AIMD
// controller's one setting; the rest of its shape is constants.
func TestAdaptiveConfigWithDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want AdaptiveConfig
	}{
		{name: "zero value takes the default", in: AdaptiveConfig{}, want: AdaptiveConfig{Target: 2 * time.Millisecond}},
		{name: "negative is treated as unset", in: AdaptiveConfig{Target: -time.Second}, want: AdaptiveConfig{Target: 2 * time.Millisecond}},
		{name: "a set target survives", in: AdaptiveConfig{Target: time.Millisecond}, want: AdaptiveConfig{Target: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults(); got != tc.want {
				t.Fatalf("withDefaults(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}
