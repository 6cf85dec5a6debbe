package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one generator connection: a client whose transport holds at most
// one connection to the daemon, and a reusable response buffer.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response into c.buf. A
// non-negative opID is sent in the X-Bench-Op header for the trace.
func (c *conn) post(base, path string, body []byte, opID int64) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if opID >= 0 {
		req.Header.Set(opHeader, strconv.FormatInt(opID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// get fetches a path into c.buf.
func (c *conn) get(base, path string) (int, error) {
	resp, err := c.hc.Get(base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

const opHeader = "X-Bench-Op"

// rec is the timing of one call, measured from the phase start.
type rec struct {
	due, sent, end time.Duration
	kind           opKind
	ok             bool
	items          int // requests the call completed (batch items count one each)
}

// latency is the call's latency from its due time; a failed call misses
// every limit.
func (r rec) latency() float64 {
	if !r.ok {
		return math.Inf(1)
	}
	return ms(r.end - r.due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseResult is everything one open-loop phase measured.
type phaseResult struct {
	name string
	rate float64       // multiple of the reference rate
	dur  time.Duration // planned length
	recs []rec         // scheduled calls, in schedule order
	obs  []rec         // follow-up observes
	late []float64     // generator lateness per scheduled call, ms
	// cpu is the daemon's CPU time at each window boundary, when sampled.
	cpu []time.Duration
	// steal is the machine's steal time at the same boundaries.
	steal []time.Duration
}

// latencies returns the latencies of calls of kind k, in ms.
func (pr *phaseResult) latencies(k opKind) []float64 {
	var out []float64
	src := pr.recs
	if k == kObserve {
		src = pr.obs
	}
	for _, r := range src {
		if r.kind == k {
			out = append(out, r.latency())
		}
	}
	return out
}

// completed counts requests completed, batch items one each.
func (pr *phaseResult) completed() int {
	n := 0
	for _, r := range pr.recs {
		if r.ok {
			n += r.items
		}
	}
	for _, r := range pr.obs {
		if r.ok {
			n++
		}
	}
	return n
}

// windows splits the phase into n consecutive windows by due time.
func (pr *phaseResult) windows(n int) []*phaseResult {
	out := make([]*phaseResult, n)
	for i := range out {
		out[i] = &phaseResult{name: pr.name, rate: pr.rate, dur: pr.dur / time.Duration(n)}
	}
	at := func(due time.Duration) int { return min(int(int64(due)*int64(n)/int64(max(pr.dur, 1))), n-1) }
	for i, r := range pr.recs {
		w := out[at(r.due)]
		w.recs = append(w.recs, r)
		w.late = append(w.late, pr.late[i])
	}
	for _, r := range pr.obs {
		w := out[at(r.due)]
		w.obs = append(w.obs, r)
	}
	return out
}

// predictCalls returns the latencies of the workload's predict calls.
func (pr *phaseResult) predictCalls(w *workload) []float64 {
	if w.Batch > 0 {
		return pr.latencies(kBatch)
	}
	return pr.latencies(kPredict)
}

// runner drives one daemon (or the in-process traced server) with a plan.
type runner struct {
	p     *plan
	base  string
	conns []*conn
	tw    *twin // nil when untraced

	// advanced counts successful advances per platform, so the final
	// probes know each platform's virtual time.
	advanced []atomic.Int64

	*gate
	// pid and windows, when set, make runPhase sample the daemon's CPU
	// time at the boundaries of that many equal windows.
	pid, windows int
	// expect computes the reference a final probe must match.
	expect func(i int, t float64) (probe, error)
}

func newRunner(p *plan, addr string, workers int, g *gate) *runner {
	r := &runner{p: p, base: "http://" + addr, advanced: make([]atomic.Int64, len(p.Names)), gate: g, expect: p.expectedProbe}
	for range workers {
		r.conns = append(r.conns, newConn())
	}
	return r
}

func (r *runner) close() {
	for _, c := range r.conns {
		c.close()
	}
}

// gate is the correctness gate: it counts every operation attempted and
// every one that failed, was refused or answered incorrectly. Refused
// counts the failed predictions the in-process reference refuses too: the
// daemon answered as its own model does, so they fail the operation but
// not the gate.
type gate struct {
	attempted, failed, refused atomic.Int64
	mu                         sync.Mutex
	failures                   []string
}

// refuse counts one prediction refused the way the reference refuses it.
func (g *gate) refuse(what, msg string) {
	g.refused.Add(1)
	g.check(what, fmt.Errorf("refused, as the in-process reference does: %s", msg))
}

// correct reports whether every failure was a reproduced refusal.
func (g *gate) correct() bool { return g.failed.Load() == g.refused.Load() }

// check counts one attempted operation and records err as its failure.
func (g *gate) check(what string, err error) bool {
	g.attempted.Add(1)
	if err == nil {
		return true
	}
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.failures) < 10 {
		g.failures = append(g.failures, fmt.Sprintf("%s: %v", what, err))
	}
	g.mu.Unlock()
	return false
}

// runPhase executes ops open-loop: each connection takes the next due
// call, sleeps until its due time, sends it, and sends the follow-up
// observes on the same connection. A call whose connections are all busy
// waits, and that wait counts in its latency.
func (r *runner) runPhase(name string, rate float64, dur time.Duration, ops []op) *phaseResult {
	bodies := make([][]byte, len(ops))
	for i := range ops {
		bodies[i] = r.p.body(&ops[i])
	}
	res := &phaseResult{name: name, rate: rate, dur: dur, recs: make([]rec, len(ops)), late: make([]float64, len(ops))}
	var next atomic.Int64
	var obsMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	if r.pid > 0 && r.windows > 0 {
		// Sample the daemon's CPU time, and the machine's steal time, at
		// every window boundary.
		res.cpu = make([]time.Duration, r.windows+1)
		res.steal = make([]time.Duration, r.windows+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range res.cpu {
				time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(r.windows))))
				res.cpu[i], _ = cpuTime(r.pid)
				res.steal[i], _ = stealTime()
			}
		}()
	}
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var obs []rec
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				o := &ops[i]
				free := time.Since(start)
				if d := o.At - free; d > 0 {
					sleep(d)
				}
				sent := time.Since(start)
				res.late[i] = ms(sent - max(o.At, free))
				preds, ok, opID := r.exec(c, o, bodies[i])
				end := time.Since(start)
				res.recs[i] = rec{due: o.At, sent: sent, end: end, kind: o.Kind, ok: ok, items: r.p.itemsOf(o)}
				if r.tw != nil && ok {
					r.tw.mirror(opID, o, preds)
				}
				for j, pd := range preds {
					if o.Observe&(1<<j) == 0 || pd == nil {
						continue
					}
					plat := o.Plat
					if o.Kind == kBatch {
						plat = o.Items[j]
					}
					due := time.Since(start)
					ok := r.observe(c, plat, pd.ID, pd.Mean*o.Factor, pd, j)
					obs = append(obs, rec{due: due, sent: due, end: time.Since(start), kind: kObserve, ok: ok, items: 1})
				}
			}
			obsMu.Lock()
			res.obs = append(res.obs, obs...)
			obsMu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// sleep waits d at the kernel timer's precision (tens of µs). time.Sleep
// rounds short waits up to about a millisecond on Linux, which would make
// the generator, not the daemon, late on most calls.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (p *plan) itemsOf(o *op) int {
	if o.Kind == kBatch {
		return len(o.Items)
	}
	return 1
}

// served is one prediction the daemon returned, with the twin's answer to
// the same request when tracing.
type served struct {
	predictResp
	twinID uint64
}

var paths = [numKinds]string{"/predict", "/predict/batch", "/observe", "/advance", "/schedule"}

// exec sends one scheduled call and validates its response. For predict
// calls it returns the predictions (nil entries for invalid ones), and
// always the call's trace id (-1 when untraced).
func (r *runner) exec(c *conn, o *op, body []byte) ([]*served, bool, int64) {
	opID := int64(-1)
	if r.tw != nil {
		opID = r.tw.begin()
	}
	preds, ok := r.execID(c, o, body, opID)
	return preds, ok, opID
}

func (r *runner) execID(c *conn, o *op, body []byte, opID int64) ([]*served, bool) {
	t0 := time.Now()
	status, err := c.post(r.base, paths[o.Kind], body, opID)
	if r.tw != nil {
		r.tw.spans.add(opID, "http."+o.Kind.String(), t0, time.Now())
	}
	what := fmt.Sprintf("%s %s", o.Kind, r.p.Names[o.Plat])
	if err == nil && status == http.StatusBadRequest && o.Kind == kPredict {
		var pr predictResp
		if json.Unmarshal(c.buf.Bytes(), &pr) == nil && r.reproduced(o.Plat, o.Shape, pr.Error) {
			r.refuse(what, pr.Error)
			return []*served{nil}, false
		}
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, c.buf.String())
	}
	if err != nil {
		return nil, r.check(what, err)
	}
	switch o.Kind {
	case kPredict:
		var pr predictResp
		err := json.Unmarshal(c.buf.Bytes(), &pr)
		if err == nil {
			err = validatePrediction(&pr, r.p.Names[o.Plat], len(r.p.W.Levels))
		}
		if !r.check(what, err) {
			return []*served{nil}, false
		}
		return []*served{{predictResp: pr}}, true
	case kBatch:
		var br struct {
			Responses []predictResp `json:"responses"`
		}
		err := json.Unmarshal(c.buf.Bytes(), &br)
		if err == nil && len(br.Responses) != len(o.Items) {
			err = fmt.Errorf("%d of %d items answered", len(br.Responses), len(o.Items))
		}
		out := make([]*served, len(o.Items))
		ok := r.check("batch", err)
		if ok {
			for i := range br.Responses {
				pr := &br.Responses[i]
				item := "batch item " + r.p.Names[o.Items[i]]
				if pr.Error != "" && r.reproduced(o.Items[i], o.Shapes[i], pr.Error) {
					r.refuse(item, pr.Error)
					ok = false
				} else if r.check(item, validatePrediction(pr, r.p.Names[o.Items[i]], len(r.p.W.Levels))) {
					out[i] = &served{predictResp: *pr}
				} else {
					ok = false
				}
			}
		}
		return out, ok
	case kAdvance:
		var times map[string]float64
		err := json.Unmarshal(c.buf.Bytes(), &times)
		name := r.p.Names[o.Plat]
		if err == nil && !(times[name] > 0) {
			err = fmt.Errorf("no clock for %s in %v", name, times)
		}
		if r.check(what, err) {
			r.advanced[o.Plat].Add(1)
			return nil, true
		}
		return nil, false
	case kSchedule:
		var sr struct {
			Placements []struct {
				Tenant        string  `json:"tenant"`
				PredictedExec float64 `json:"predicted_exec"`
			} `json:"placements"`
			Unplaced int `json:"unplaced"`
		}
		err := json.Unmarshal(c.buf.Bytes(), &sr)
		if err == nil && (len(sr.Placements) != 1 || sr.Unplaced != 0) {
			err = fmt.Errorf("%d placed, %d unplaced", len(sr.Placements), sr.Unplaced)
		}
		if err == nil && (sr.Placements[0].Tenant == "" || !(sr.Placements[0].PredictedExec > 0) || math.IsInf(sr.Placements[0].PredictedExec, 0)) {
			err = fmt.Errorf("bad placement %+v", sr.Placements[0])
		}
		return nil, r.check("schedule", err)
	}
	return nil, r.check(what, errors.New("unknown op"))
}

// observe reports a measured runtime for one served prediction.
func (r *runner) observe(c *conn, plat int32, id uint64, actual float64, pd *served, item int) bool {
	name := r.p.Names[plat]
	body, _ := json.Marshal(map[string]any{"platform": name, "id": id, "actual": actual})
	opID := int64(-1)
	if r.tw != nil {
		opID = r.tw.begin()
	}
	t0 := time.Now()
	status, err := c.post(r.base, "/observe", body, opID)
	if r.tw != nil {
		r.tw.spans.add(opID, "http.observe", t0, time.Now())
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, c.buf.String())
	}
	if err == nil {
		var or struct {
			Platform string `json:"platform"`
		}
		if err = json.Unmarshal(c.buf.Bytes(), &or); err == nil && or.Platform != name {
			err = fmt.Errorf("observe answered for %q", or.Platform)
		}
	}
	ok := r.check("observe "+name, err)
	if ok && r.tw != nil {
		r.tw.observe(opID, name, pd.twinID, actual)
	}
	return ok
}
