package suite

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// span is one call into a layer, or one phase grouping such calls, on the
// host clock. Spans of one request share req (the batch or read index);
// parent is the index of the enclosing phase span, -1 at the top.
type span struct {
	name   string
	start  time.Duration // since the tracer's origin
	dur    time.Duration
	parent int32
	req    int32
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is what the untraced run passes.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int // call spans beyond maxCallSpans
}

// maxCallSpans bounds the per-call spans kept: a traced round of
// bulk-ingest alone issues 2^18 reads, and a 70 MB span file helps nobody.
// Phase spans are always kept.
const maxCallSpans = 1 << 17

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span that ended at end after running for dur and returns
// its index, for use as a parent.
func (t *tracer) add(name string, end time.Time, dur time.Duration, parent, req int) int {
	if t == nil {
		return -1
	}
	if req >= 0 && len(t.spans) >= maxCallSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		name:   name,
		start:  end.Sub(t.origin) - dur,
		dur:    dur,
		parent: int32(parent),
		req:    int32(req),
	})
	return len(t.spans) - 1
}

// open reserves a phase span whose duration is set by close; children
// recorded in between name it as their parent.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: int32(parent), req: -1})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	if t == nil {
		return
	}
	t.spans[i].dur = time.Since(t.origin) - t.spans[i].start
}

// writeChrome renders the spans in Chrome's trace-event array format.
// Phase spans go on lane 1 and calls on lane 2, so a viewer nests them.
func (t *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "[\n")
	for i, s := range t.spans {
		lane := 2
		if s.req < 0 {
			lane = 1
		}
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, `{"name":%q,"cat":"host","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"id":%d,"parent":%d,"req":%d}}%s`+"\n",
			s.name, float64(s.start)/1e3, float64(s.dur)/1e3, lane, i, s.parent, s.req, sep)
	}
	fmt.Fprint(bw, "]\n")
	return bw.Flush()
}
