package main

import (
	"bytes"
	"io"
	"os"
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

// serveThenTerm starts the daemon, waits until it listens, sends the
// process SIGTERM — which the daemon has subscribed to — and returns the
// daemon's exit status and everything it wrote.
func serveThenTerm(t *testing.T, args ...string) (int, string) {
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
	code, out := serveThenTerm(t)
	if code != 0 || !strings.Contains(out, "terminated — draining...") || !strings.Contains(out, "drained and flushed; bye") {
		t.Fatalf("exit %d, want 0 after a drain; stderr:\n%s", code, out)
	}
}

// TestExpiredShutdownTimeoutExitsOne: a shutdown budget that is gone before
// the ingest drain can finish exits 1 and says what it gave up on.
func TestExpiredShutdownTimeoutExitsOne(t *testing.T) {
	code, out := serveThenTerm(t, "-shutdown-timeout", "1ns")
	if code != 1 || !strings.Contains(out, "shutdown deadline (1ns) fired before the ingest drain finished") {
		t.Fatalf("exit %d, want 1 with the deadline message; stderr:\n%s", code, out)
	}
}
