package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/fleetsched"
	"prodpred/internal/modal"
	"prodpred/internal/nws"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// span is one timed layer boundary of one operation. Spans of one
// operation share Op; Parent names the span that caused this one.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(op int64, name string, t0, t1 time.Time) { l.addChild(op, name, "", t0, t1) }

func (l *spanLog) addChild(op int64, name, parent string, t0, t1 time.Time) {
	s := span{Op: op, Name: name, Parent: parent, Start: int64(t0.Sub(l.epoch)), End: int64(t1.Sub(l.epoch))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var (
	kindOfPath = map[string]opKind{}
	kindOfSpan = map[string]opKind{}
)

func init() {
	for k := range numKinds {
		kindOfPath[paths[k]] = k
		kindOfSpan["api."+k.String()] = k
	}
}

// traceHandler wraps the API handler with a span around ServeHTTP, named
// after the call kind and keyed by the op id the generator sent.
func traceHandler(h http.Handler, l *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if k, ok := kindOfPath[r.URL.Path]; ok && err == nil {
			l.addChild(id, "api."+k.String(), "http."+k.String(), t0, time.Now())
		}
	})
}

// buildRegistry builds the fleet predictd would serve: the paper platforms
// from their specs, or the fleet restored from a snapshot image.
func buildRegistry(p *plan, metrics *obs.Registry, image []byte) (*predict.Registry, error) {
	if image != nil {
		return predict.ReadSnapshot(bytes.NewReader(image), predict.RegistryOptions{Metrics: metrics})
	}
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for i, name := range p.Names {
		spec, err := p.spec(i)
		if err != nil {
			return nil, err
		}
		if err := reg.RegisterSpec(*spec); err != nil {
			return nil, err
		}
		if _, err := reg.Lookup(name); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// replica is a set of NWS monitors over one twin platform's environment,
// run forward at each advance so the monitor layers can be timed directly.
type replica struct {
	mu   sync.Mutex
	mons []*nws.Monitor
}

// twin is a second registry built from the same specs and seed as the
// server's. It receives the traced run's op stream by direct calls into the
// public functions of each layer, and times them.
type twin struct {
	p     *plan
	reg   *predict.Registry
	sched *fleetsched.Scheduler
	spans *spanLog
	reps  map[int32]*replica // fixed after newTwin

	nextOp     atomic.Int64
	gridProbes atomic.Int64

	mu           sync.Mutex
	seen         map[tickKey]bool
	hits, misses int
	batches      int
	modelDiffs   int                     // layer-model results that differ from the served raw value
	child        map[int64]time.Duration // op -> time spent in the twin's calls
	samples      map[string][]float64    // layer -> µs per call (or a count)
	errs         []string
}

type tickKey struct {
	plat  int32
	shape uint8
	gen   uint64
}

// gridLevels are the interval levels the twin asks for when it times the
// distribution grid of a request that did not ask for one.
var gridLevels = []float64{0.5, 0.95}

// gridProbeEvery is how many tick-cache misses without levels share one
// timed distribution grid.
const gridProbeEvery = 16

// replicated is how many fleet tenants get replica monitors.
const replicated = 12

func newTwin(p *plan, image []byte, spans *spanLog) (*twin, error) {
	metrics := obs.NewRegistry()
	reg, err := buildRegistry(p, metrics, image)
	if err != nil {
		return nil, err
	}
	t := &twin{
		p: p, reg: reg, spans: spans,
		sched: fleetsched.New(reg, fleetsched.Config{Metrics: fleetsched.NewMetrics(metrics)}),
		reps:  map[int32]*replica{},
	}
	t.reset()
	var rep []int32
	if p.W.Fleet > 0 {
		rep = p.AdvanceOrder[:replicated]
	} else {
		for i := range p.Names {
			rep = append(rep, int32(i))
		}
	}
	for _, i := range rep {
		svc, err := reg.Lookup(p.Names[i])
		if err != nil {
			return nil, err
		}
		r := &replica{}
		for m := range svc.Machines() {
			mon, err := nws.NewCPUMonitor(svc.Env(), m, nws.DefaultPeriod, 512)
			if err != nil {
				return nil, err
			}
			if err := mon.RunUntil(svc.Now()); err != nil {
				return nil, err
			}
			r.mons = append(r.mons, mon)
		}
		t.reps[i] = r
	}
	return t, nil
}

// reset drops the samples and counts gathered so far.
func (t *twin) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen = map[tickKey]bool{}
	t.hits, t.misses, t.modelDiffs = 0, 0, 0
	t.child = map[int64]time.Duration{}
	t.samples = map[string][]float64{}
}

func (t *twin) begin() int64 { return t.nextOp.Add(1) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (t *twin) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *twin) setChild(op int64, d time.Duration) {
	t.mu.Lock()
	t.child[op] += d
	t.mu.Unlock()
}

func (t *twin) fail(format string, args ...any) {
	t.mu.Lock()
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// classify reports whether this call is the first for its request shape on
// its platform in the current tick, i.e. a tick-cache miss.
func (t *twin) classify(plat int32, sh uint8, svc *predict.Service) bool {
	k := tickKey{plat, sh, svc.CacheGeneration()}
	t.mu.Lock()
	defer t.mu.Unlock()
	miss := !t.seen[k]
	t.seen[k] = true
	if miss {
		t.misses++
	} else {
		t.hits++
	}
	return miss
}

func (p *plan) request(plat int32, sh uint8) (predict.Request, error) {
	b := p.predictBody(plat, sh)
	return api.PredictRequest{Platform: b.Platform, N: b.N, Iterations: b.Iterations, Strategy: b.Strategy, Levels: b.Levels}.ToRequest()
}

// mirror replays one served call on the twin.
func (t *twin) mirror(op int64, o *op, preds []*served) {
	switch o.Kind {
	case kPredict:
		if pd, d := t.predict(op, "api.predict", o.Plat, o.Shape); pd != nil && preds[0] != nil {
			preds[0].twinID = pd.ID
			t.setChild(op, d)
		}
	case kBatch:
		t.mu.Lock()
		t.batches++
		whole := t.batches%2 == 1
		t.mu.Unlock()
		if !whole {
			// Every other batch goes item by item, so hits and misses
			// can be timed apart; its op gets no child time.
			for i, ten := range o.Items {
				if pd, _ := t.predict(op, "api.batch", ten, o.Shapes[i]); pd != nil && preds[i] != nil {
					preds[i].twinID = pd.ID
				}
			}
			return
		}
		reqs := make([]predict.Request, len(o.Items))
		for i, ten := range o.Items {
			req, err := t.p.request(ten, o.Shapes[i])
			if err != nil {
				t.fail("batch request: %v", err)
				return
			}
			reqs[i] = req
			if svc, err := t.reg.Lookup(t.p.Names[ten]); err == nil {
				t.classify(ten, o.Shapes[i], svc)
			}
		}
		t0 := time.Now()
		out, errs := t.reg.PredictBatch(reqs)
		t1 := time.Now()
		t.spans.addChild(op, "predict.PredictBatch", "api.batch", t0, t1)
		t.sample("batch", us(t1.Sub(t0)))
		t.setChild(op, t1.Sub(t0))
		for i := range out {
			if errs[i] != nil {
				t.fail("batch item: %v", errs[i])
			} else if preds[i] != nil {
				preds[i].twinID = out[i].ID
			}
		}
	case kAdvance:
		t.advance(op, o.Plat)
	case kSchedule:
		s := t.p.W.Shapes[o.Shape]
		t0 := time.Now()
		_, err := t.sched.Submit([]fleetsched.JobSpec{{N: s.N, Iterations: 10}})
		t1 := time.Now()
		if err != nil {
			t.fail("submit: %v", err)
			return
		}
		t.spans.addChild(op, "fleetsched.Submit", "api.schedule", t0, t1)
		t.sample("submit", us(t1.Sub(t0)))
		t.setChild(op, t1.Sub(t0))
	}
}

// predict serves one prediction on the twin, timing the lookup and the
// prediction, split into tick-cache hit and miss. A miss is served in two
// calls, the pipeline core without levels and then the distribution grid
// on the computed core, so the grid is timed on its own; the returned
// duration is the part the served call paid for.
func (t *twin) predict(op int64, parent string, plat int32, sh uint8) (*predict.Prediction, time.Duration) {
	req, err := t.p.request(plat, sh)
	if err != nil {
		t.fail("request: %v", err)
		return nil, 0
	}
	t0 := time.Now()
	svc, err := t.reg.Lookup(t.p.Names[plat])
	t1 := time.Now()
	if err != nil {
		t.fail("lookup: %v", err)
		return nil, 0
	}
	t.spans.addChild(op, "predict.Lookup", parent, t0, t1)
	t.sample("lookup", us(t1.Sub(t0)))
	if !t.classify(plat, sh, svc) {
		ta := time.Now()
		pred, err := svc.Predict(req)
		tb := time.Now()
		if err != nil {
			t.fail("predict: %v", err)
			return nil, 0
		}
		t.spans.addChild(op, "predict.Predict", parent, ta, tb)
		t.sample("hit", us(tb.Sub(ta)))
		return &pred, t1.Sub(t0) + tb.Sub(ta)
	}
	core := req
	core.Levels = nil
	ta := time.Now()
	a, err := svc.Predict(core)
	tb := time.Now()
	if err != nil {
		t.fail("predict miss: %v", err)
		return nil, 0
	}
	served, end := &a, tb
	// A request without levels never pays for the grid; the grid is then
	// timed on one miss in gridProbeEvery, to keep the twin's extra work
	// small.
	if len(req.Levels) > 0 || t.gridProbes.Add(1)%gridProbeEvery == 1 {
		grid := req
		if len(grid.Levels) == 0 {
			grid.Levels = gridLevels
		}
		b, err := svc.Predict(grid)
		tc := time.Now()
		if err != nil {
			t.fail("predict grid: %v", err)
			return nil, 0
		}
		t.spans.addChild(op, "predict.dist_grid", parent, tb, tc)
		t.sample("grid", us(tc.Sub(tb)))
		if len(req.Levels) > 0 {
			served, end = &b, tc
		}
	}
	t.spans.addChild(op, "predict.Predict", parent, ta, end)
	t.sample("miss", us(end.Sub(ta)))
	t.layerModels(svc, req, &a)
	return served, t1.Sub(t0) + end.Sub(ta)
}

// layerModels times the partitioner and the structural model on the loads
// the twin's miss just read, and checks the model reproduces the served
// raw value.
func (t *twin) layerModels(svc *predict.Service, req predict.Request, pred *predict.Prediction) {
	loads := make([]stochastic.Value, len(pred.Loads))
	for i, l := range pred.Loads {
		loads[i] = l.Load
	}
	machines := svc.Machines()
	t0 := time.Now()
	_, err := sched.SORPartition(req.N, machines, loads, req.Strategy)
	t1 := time.Now()
	if err != nil {
		t.fail("partition: %v", err)
		return
	}
	t.sample("partition", us(t1.Sub(t0)))
	link, err := svc.Platform().Link(0, 1)
	if err != nil {
		t.fail("link: %v", err)
		return
	}
	model := &structural.SORConfig{
		N: req.N, Iterations: req.Iterations, Partition: pred.Partition,
		Machines: machines, MachineIdx: sor.IdentityMapping(len(machines)), Link: link,
		MaxStrategy: req.MaxStrategy, IterationRel: req.IterationRel,
	}
	params := structural.Params{structural.BWAvailParam: pred.Bandwidth}
	for i, l := range loads {
		params[structural.LoadParam(i)] = l
	}
	t2 := time.Now()
	v, err := model.Predict(params)
	t3 := time.Now()
	if err != nil {
		t.fail("sor model: %v", err)
		return
	}
	t.sample("sor", us(t3.Sub(t2)))
	if v != pred.Raw {
		t.mu.Lock()
		t.modelDiffs++
		t.mu.Unlock()
	}
}

// advance moves one twin platform's clock and runs its replica monitors
// forward, timing catch-up, the distribution report, and the mixture
// refit the monitors make every 16 rounds on their trailing 64 samples.
func (t *twin) advance(op int64, plat int32) {
	svc, err := t.reg.Lookup(t.p.Names[plat])
	if err != nil {
		t.fail("lookup: %v", err)
		return
	}
	t0 := time.Now()
	err = svc.Advance(advanceSeconds)
	t1 := time.Now()
	if err != nil {
		t.fail("advance: %v", err)
		return
	}
	t.spans.addChild(op, "predict.Advance", "api.advance", t0, t1)
	t.sample("advance", us(t1.Sub(t0)))
	t.setChild(op, t1.Sub(t0))
	r := t.reps[plat]
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := svc.Now()
	t2 := time.Now()
	for _, m := range r.mons {
		if err := m.RunUntil(now); err != nil {
			t.fail("replica: %v", err)
			return
		}
	}
	t.sample("run_until", us(time.Since(t2)))
	for _, m := range r.mons {
		t3 := time.Now()
		m.RobustDistReport(now, predict.DefaultCPUPrior)
		t.sample("dist_report", us(time.Since(t3)))
	}
	if rounds := int(now / nws.DefaultPeriod); rounds%refitEvery == 0 {
		t.refit(r)
	}
}

// refitEvery and refitWindow are the mixture forecaster's refit cadence, in
// sensor rounds, and its trailing window.
const refitEvery, refitWindow = 16, 64

// refit times the BIC-selected mixture fit, and a four-component EM fit,
// on each replica monitor's trailing window. Callers hold r.mu.
func (t *twin) refit(r *replica) {
	const kMax = 4
	for _, m := range r.mons {
		hist := m.History()
		if len(hist) > refitWindow {
			hist = hist[len(hist)-refitWindow:]
		}
		t0 := time.Now()
		_, err := modal.FitBIC(hist, kMax)
		t1 := time.Now()
		if err != nil {
			continue
		}
		t.sample("fit_bic", us(t1.Sub(t0)))
		mm, err := modal.FitEM(hist, kMax)
		t2 := time.Now()
		if err != nil {
			continue
		}
		t.sample("fit_em", us(t2.Sub(t1)))
		t.sample("fit_em_iters", float64(mm.Iterations))
	}
}

// refitAll times one refit on every replica, for runs too short to reach
// a refit round.
func (t *twin) refitAll() {
	for _, r := range t.reps {
		r.mu.Lock()
		t.refit(r)
		r.mu.Unlock()
	}
}

// snapshotRestore writes the twin's fleet image and times restoring it,
// the median of three.
func (t *twin) snapshotRestore() (int, float64, error) {
	var buf bytes.Buffer
	if err := t.reg.WriteSnapshot(&buf); err != nil {
		return 0, 0, err
	}
	var times []float64
	for range 3 {
		t0 := time.Now()
		if _, err := predict.ReadSnapshot(bytes.NewReader(buf.Bytes()), predict.RegistryOptions{}); err != nil {
			return 0, 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return buf.Len(), median(times), nil
}

// outstanding is the twin fleet's issued-but-unobserved prediction count.
func (t *twin) outstanding() int {
	n := 0
	for _, svc := range t.reg.Services() {
		n += svc.Outstanding()
	}
	return n
}

// observe mirrors one /observe on the twin.
func (t *twin) observe(op int64, name string, id uint64, actual float64) {
	if id == 0 {
		return
	}
	t0 := time.Now()
	_, err := t.reg.Observe(name, id, actual)
	t1 := time.Now()
	if err != nil {
		t.fail("observe: %v", err)
		return
	}
	t.spans.addChild(op, "predict.Observe", "api.observe", t0, t1)
	t.sample("observe", us(t1.Sub(t0)))
	t.setChild(op, t1.Sub(t0))
}

// layerTimes is what a traced phase measured, per layer.
type layerTimes struct {
	transport map[opKind][]float64 // http span minus api span, µs
	self      map[opKind][]float64 // api span minus the twin's calls, µs
	stall     []float64            // predict-call api spans that overlap an advance, µs
	samples   map[string][]float64
	hitRatio  float64
	// modelDiffs counts layer-model results that differ from the served
	// raw value.
	modelDiffs int
}

// analyze joins a phase's spans by op into per-layer self times.
func (t *twin) analyze(spans []span) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{transport: map[opKind][]float64{}, self: map[opKind][]float64{}, samples: t.samples, modelDiffs: t.modelDiffs}
	if n := t.hits + t.misses; n > 0 {
		lt.hitRatio = float64(t.hits) / float64(n)
	}
	type pair struct{ http, api *span }
	ops := map[int64]*pair{}
	var advances, reads []*span
	for i := range spans {
		s := &spans[i]
		pr := ops[s.Op]
		if pr == nil {
			pr = &pair{}
			ops[s.Op] = pr
		}
		switch s.Name {
		case "api.advance":
			advances = append(advances, s)
		case "api.predict", "api.batch":
			reads = append(reads, s)
		}
		if strings.HasPrefix(s.Name, "http.") {
			pr.http = s
		} else if strings.HasPrefix(s.Name, "api.") {
			pr.api = s
		}
	}
	for id, pr := range ops {
		if pr.http == nil || pr.api == nil {
			continue
		}
		k := kindOfSpan[pr.api.Name]
		lt.transport[k] = append(lt.transport[k], us(pr.http.dur()-pr.api.dur()))
		if c, ok := t.child[id]; ok {
			lt.self[k] = append(lt.self[k], us(pr.api.dur()-c))
		}
	}
	sort.Slice(advances, func(i, j int) bool { return advances[i].Start < advances[j].Start })
	for _, r := range reads {
		// Advances are short and sorted by start: the first one that
		// could overlap r starts before r ends.
		i := sort.Search(len(advances), func(i int) bool { return advances[i].Start >= r.End })
		for j := i - 1; j >= 0 && j >= i-64; j-- {
			if advances[j].End > r.Start {
				lt.stall = append(lt.stall, us(r.dur()))
				break
			}
		}
	}
	return lt
}

// allocPerPredict measures the bytes the API handler allocates per
// /predict call, on one goroutine with the rest of the process idle.
func allocPerPredict(h http.Handler, p *plan, n int) float64 {
	reqs := make([]*http.Request, n)
	ws := make([]*discardWriter, n)
	for i := range reqs {
		body, _ := json.Marshal(p.predictBody(p.Served[i%len(p.Served)], uint8(i%len(p.W.Shapes))))
		r, err := http.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		if err != nil {
			return math.NaN()
		}
		reqs[i], ws[i] = r, &discardWriter{h: http.Header{}}
	}
	var m0, m1 runtimeStats
	m0.read()
	for i, r := range reqs {
		h.ServeHTTP(ws[i], r)
	}
	m1.read()
	return float64(m1.alloc-m0.alloc) / float64(n)
}

type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
