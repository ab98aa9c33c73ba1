package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// small keeps a test daemon's simulated machines and vertex index tiny.
var small = []string{"-addr", "127.0.0.1:0", "-vertices", "1024", "-pmem-gb", "1", "-threads", "2", "-props=false"}

// TestBadCommandLines: a command line the daemon cannot serve exits
// non-zero before it listens, and says which flag is at fault.
func TestBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stderr
	}{
		{"a malformed -chaos spec", []string{"-replicas", "1", "-chaos", "drop"}, 1, `chaos: bad term "drop"`},
		{"a -chaos probability that is not one", []string{"-replicas", "1", "-chaos", "drop=often"}, 1, "chaos: bad probability"},
		{"-chaos without -replicas", []string{"-chaos", "seed=7,drop=0.05"}, 1, "-chaos requires -replicas"},
		{"-ue-decay without -media-guard", []string{"-ue-decay", "0.01"}, 1, "-ue-decay requires -media-guard"},
		{"-shards 0", []string{"-shards", "0"}, 1, "-shards must be >= 1"},
		{"an unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
	} {
		var stderr bytes.Buffer
		if got := run(append(append([]string(nil), small...), tc.args...), io.Discard, &stderr); got != tc.exit {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", tc.name, got, tc.exit, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr does not say %q:\n%s", tc.name, tc.want, &stderr)
		}
		if strings.Contains(stderr.String(), "listening") {
			t.Errorf("%s: the daemon started serving:\n%s", tc.name, &stderr)
		}
	}
}

// lockedBuffer is a stderr the test can read while the daemon writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// serveThenTerm starts the daemon, waits until it listens, runs while (if
// any) with the base URL it listens on, sends the process SIGTERM — which
// the daemon has subscribed to — and returns the daemon's exit status and
// everything it wrote.
func serveThenTerm(t *testing.T, while func(base string), args ...string) (int, string) {
	t.Helper()
	var stderr lockedBuffer
	exit := make(chan int, 1)
	go func() { exit <- run(append(append([]string(nil), small...), args...), io.Discard, &stderr) }()
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(stderr.String(), "listening on"); {
		select {
		case code := <-exit:
			t.Fatalf("the daemon exited %d before it listened:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the daemon never listened:\n%s", stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	if while != nil {
		addr := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(stderr.String())[1]
		while("http://" + addr)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		return code, stderr.String()
	case <-time.After(30 * time.Second):
		t.Fatalf("the daemon did not exit on SIGTERM:\n%s", stderr.String())
		return 0, ""
	}
}

// TestSigtermDrainsAndExitsZero: SIGTERM during an idle serve drains,
// flushes and exits 0.
func TestSigtermDrainsAndExitsZero(t *testing.T) {
	code, out := serveThenTerm(t, nil)
	if code != 0 || !strings.Contains(out, "terminated — draining...") || !strings.Contains(out, "drained and flushed; bye") {
		t.Fatalf("exit %d, want 0 after a drain; stderr:\n%s", code, out)
	}
}

// TestExpiredShutdownTimeoutExitsOne: a shutdown budget that is gone before
// the ingest drain can finish exits 1 and says what it gave up on.
func TestExpiredShutdownTimeoutExitsOne(t *testing.T) {
	code, out := serveThenTerm(t, nil, "-shutdown-timeout", "1ns")
	if code != 1 || !strings.Contains(out, "shutdown deadline (1ns) fired before the ingest drain finished") {
		t.Fatalf("exit %d, want 1 with the deadline message; stderr:\n%s", code, out)
	}
}

// TestPipelineFlagsReachEveryShard: -queue-cap, -batch-edges, -linger,
// -adaptive and -adaptive-target configure every shard's pipeline, as
// /v1/metrics reads them back.
func TestPipelineFlagsReachEveryShard(t *testing.T) {
	code, out := serveThenTerm(t, func(base string) {
		for name, want := range map[string]string{
			"xpgraph_ingest_queue_cap_edges":      "512",
			"xpgraph_ingest_batch_edges_live":     "64",
			"xpgraph_ingest_linger_seconds_live":  "0.003",
			"xpgraph_ingest_tune_decreases_total": "0",
		} {
			if got := shardGauge(t, base, name); !slices.Equal(got, []string{want, want}) {
				t.Errorf("%s by shard = %v, want %s on both", name, got, want)
			}
		}
		// Every batch overruns the 1ns target: each shard applies about 100
		// edges a write in 64-edge chunks, so three writes make every
		// shard's controller take a multiplicative decrease.
		var body strings.Builder
		body.WriteString(`{"edges":[`)
		for v := 0; v < 200; v++ {
			if v > 0 {
				body.WriteString(",")
			}
			fmt.Fprintf(&body, `{"src":%d,"dst":%d}`, v, v+1)
		}
		body.WriteString("]}")
		for i := 0; i < 3; i++ {
			resp, err := http.Post(base+"/v1/edges", "application/json", strings.NewReader(body.String()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("write %d: %s", i, resp.Status)
			}
		}
		for shard, got := range shardGauge(t, base, "xpgraph_ingest_tune_decreases_total") {
			if got == "0" {
				t.Errorf("shard %d: the adaptive controller never moved", shard)
			}
		}
	}, "-shards", "2", "-queue-cap", "512", "-batch-edges", "64", "-linger", "3ms",
		"-adaptive", "-adaptive-target", "1ns")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, out)
	}
}

// shardGauge scrapes the daemon's Prometheus exposition and returns the
// series name's value on each shard, in shard order.
func shardGauge(t *testing.T, base, name string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	for _, m := range regexp.MustCompile(`(?m)^`+name+`\{shard="(\d+)"\} (\S+)$`).FindAllStringSubmatch(string(text), -1) {
		if m[1] != strconv.Itoa(len(vals)) {
			t.Fatalf("%s: shard %s out of order in:\n%s", name, m[1], text)
		}
		vals = append(vals, m[2])
	}
	return vals
}
