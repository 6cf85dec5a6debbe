package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"prodpred/internal/predict"
)

// shape is one predict request shape: the SOR problem and how the
// partitioner reads the load forecasts. Distinct shapes are distinct
// tick-cache keys in the daemon.
type shape struct {
	N          int
	Iterations int
	Strategy   string
}

// workload is one traffic mix the benchmark drives open-loop.
type workload struct {
	Name string
	Why  string
	// Fleet is the tenant count served from predict.FleetSpecs; zero
	// serves the two paper platforms.
	Fleet  int
	Shapes []shape
	// Levels, when set, ask every predict for central intervals read off
	// the distribution grid.
	Levels []float64
	// PredictRate is predict calls per second at the reference rate (one
	// call is one /predict, or one /predict/batch of Batch items).
	PredictRate float64
	Batch       int
	// ObserveFrac is the share of predictions followed by /observe.
	ObserveFrac float64
	// AdvanceEvery is how often each platform's clock moves by
	// AdvanceSeconds; fleet tenants are advanced round-robin so each one
	// moves once per AdvanceEvery.
	AdvanceEvery time.Duration
	// ScheduleRate is one-job POST /schedule calls per second at the
	// reference rate.
	ScheduleRate float64
	// LadderStart is the first step of the sustained-rate ladder, as a
	// multiple of the reference rate.
	LadderStart float64
	// AdvanceTail is the advance_tail_ms percentile: the highest of the
	// candidate percentiles with at least ten advances beyond it in the
	// 20 s reference phase of a 30 s run.
	AdvanceTail float64
}

// advanceSeconds is the virtual time one POST /advance moves a clock.
const advanceSeconds = 5

// paperWarmup and fleetWarmup are the virtual seconds a platform has run
// before it serves: predictd's default -warmup, and predict.FleetSpecs'.
const (
	paperWarmup = 600
	fleetWarmup = 120
)

var workloads = []*workload{
	{
		Name:         "steady-point",
		Why:          "read-heavy interactive path: point predicts that almost always hit the tick cache, so HTTP, codec, routing, ledger and Observe dominate",
		Shapes:       []shape{{N: 200, Iterations: 5, Strategy: "mean"}},
		PredictRate:  600,
		ObserveFrac:  0.8,
		AdvanceEvery: time.Second,
		LadderStart:  1,
		AdvanceTail:  75,
	},
	{
		Name: "tick-dist",
		Why:  "write-heavy clock path: a 20x faster clock and rotating distribution requests make almost every predict a cache miss behind Advance",
		Shapes: []shape{
			{N: 120, Iterations: 5, Strategy: "mean"}, {N: 120, Iterations: 5, Strategy: "balanced"},
			{N: 200, Iterations: 5, Strategy: "mean"}, {N: 200, Iterations: 5, Strategy: "balanced"},
			{N: 280, Iterations: 5, Strategy: "mean"}, {N: 280, Iterations: 5, Strategy: "balanced"},
			{N: 400, Iterations: 5, Strategy: "mean"}, {N: 400, Iterations: 5, Strategy: "balanced"},
		},
		Levels:       []float64{0.5, 0.95},
		PredictRate:  100,
		ObserveFrac:  0.8,
		AdvanceEvery: 50 * time.Millisecond,
		ScheduleRate: 5,
		LadderStart:  0.5,
		AdvanceTail:  95,
	},
	{
		Name:         "fleet-batch",
		Why:          "fleet breadth: 16-item batches over 1,000 restored tenants spread cache misses, lookups and memory across the fleet",
		Fleet:        1000,
		Shapes:       []shape{{N: 200, Iterations: 5, Strategy: "mean"}, {N: 400, Iterations: 5, Strategy: "mean"}},
		PredictRate:  40,
		Batch:        16,
		ObserveFrac:  0.25,
		AdvanceEvery: 5 * time.Second,
		LadderStart:  1,
		AdvanceTail:  99,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// platforms returns the names of the platforms the workload serves.
func (w *workload) platforms() []string {
	if w.Fleet == 0 {
		return []string{"platform1", "platform2"}
	}
	names := make([]string, w.Fleet)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%04d", i)
	}
	return names
}

// warmup is the virtual time each platform starts serving at.
func (w *workload) warmup() float64 {
	if w.Fleet > 0 {
		return fleetWarmup
	}
	return paperWarmup
}

// itemsPerCall is how many predictions one predict call carries.
func (w *workload) itemsPerCall() int {
	if w.Batch > 0 {
		return w.Batch
	}
	return 1
}

type opKind uint8

const (
	kPredict opKind = iota
	kBatch
	kObserve
	kAdvance
	kSchedule
	numKinds
)

var kindNames = [numKinds]string{"predict", "batch", "observe", "advance", "schedule"}

func (k opKind) String() string { return kindNames[k] }

// op is one scheduled call. Observes are not scheduled on their own: they
// follow the prediction they answer on the same connection, with the bit
// for each observed prediction set in Observe.
type op struct {
	At     time.Duration // due time, from the phase start
	Kind   opKind
	Plat   int32   // platform or tenant index (predict, advance)
	Shape  uint8   // index into workload.Shapes (predict, schedule)
	Items  []int32 // batch: tenant per item
	Shapes []uint8 // batch: shape per item
	// Observe has bit i set when prediction i of the call is observed.
	Observe uint32
	// Factor scales a served mean into the "measured" runtime an observe
	// reports.
	Factor float64
}

// plan is the benchmark's whole input, derived from the seed alone.
type plan struct {
	W          *workload
	Seed       int64
	DaemonSeed int64
	Names      []string
	// Served are the platforms predictions are asked of. On the fleet
	// they leave out the workload-scenario tenants (every third): a
	// scenario can drive a machine's forecast availability to zero, and
	// predictd then refuses the prediction ("structural: division by
	// zero-mean load"). Those tenants are still restored and advanced.
	Served []int32
	// AdvanceOrder is the fleet's round-robin advance order.
	AdvanceOrder []int32
	// Probes are the platforms checked against an in-process reference.
	Probes  []int
	advNext int // round-robin cursor, carried across phases
	phases  int

	fleetSpecs []predict.PlatformSpec // the fleet's specs, in tenant order
}

// scenarioTenant reports whether fleet tenant i is one predict.FleetSpecs
// drives from the workload-scenario library.
func scenarioTenant(i int) bool { return i%3 == 2 }

// splitmix derives independent sub-seeds from the benchmark seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subRand(seed int64, tag uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)^splitmix(tag)) >> 1)))
}

func newPlan(w *workload, seed int64) *plan {
	rng := subRand(seed, 0)
	p := &plan{W: w, Seed: seed, DaemonSeed: 1 + rng.Int63n(1_000_000), Names: w.platforms()}
	for i := range p.Names {
		if w.Fleet == 0 || !scenarioTenant(i) {
			p.Served = append(p.Served, int32(i))
		}
	}
	if w.Fleet > 0 {
		p.fleetSpecs = predict.FleetSpecs(w.Fleet, p.DaemonSeed)
		for _, i := range rng.Perm(w.Fleet) {
			p.AdvanceOrder = append(p.AdvanceOrder, int32(i))
		}
		// A steady and a bursty probe tenant, plus one served tenant
		// drawn at random.
		base := 3 * rng.Intn(w.Fleet/3)
		p.Probes = []int{base, base + 1, int(p.Served[rng.Intn(len(p.Served))])}
	} else {
		p.Probes = []int{0, 1}
	}
	return p
}

// phase plans one open-loop phase: predict calls at rate×PredictRate for
// dur, observes, schedule calls scaled with them, and the clock cadence
// unchanged by the rate.
func (p *plan) phase(rate float64, dur time.Duration) []op {
	w := p.W
	p.phases++
	rng := subRand(p.Seed, uint64(p.phases))
	var ops []op
	gap := time.Duration(float64(time.Second) / (rate * w.PredictRate))
	for t := time.Duration(rng.Int63n(int64(gap))); t < dur; t += gap {
		o := op{At: t, Factor: math.Exp(0.1 * rng.NormFloat64())}
		if w.Batch > 0 {
			o.Kind = kBatch
			seen := map[int32]bool{}
			for len(o.Items) < w.Batch {
				ten := p.Served[rng.Intn(len(p.Served))]
				if seen[ten] {
					continue
				}
				seen[ten] = true
				if rng.Float64() < w.ObserveFrac {
					o.Observe |= 1 << len(o.Items)
				}
				o.Items = append(o.Items, ten)
				o.Shapes = append(o.Shapes, uint8(rng.Intn(len(w.Shapes))))
			}
		} else {
			o.Kind = kPredict
			o.Plat = int32(rng.Intn(len(p.Names)))
			o.Shape = uint8(rng.Intn(len(w.Shapes)))
			if rng.Float64() < w.ObserveFrac {
				o.Observe = 1
			}
		}
		ops = append(ops, o)
	}
	if w.ScheduleRate > 0 {
		sgap := time.Duration(float64(time.Second) / (rate * w.ScheduleRate))
		for t := time.Duration(rng.Int63n(int64(sgap))); t < dur; t += sgap {
			ops = append(ops, op{At: t, Kind: kSchedule, Shape: uint8(rng.Intn(len(w.Shapes)))})
		}
	}
	if w.Fleet > 0 {
		agap := w.AdvanceEvery / time.Duration(w.Fleet)
		for t := agap / 2; t < dur; t += agap {
			ops = append(ops, op{At: t, Kind: kAdvance, Plat: p.AdvanceOrder[p.advNext%len(p.AdvanceOrder)]})
			p.advNext++
		}
	} else {
		stagger := w.AdvanceEvery / time.Duration(len(p.Names))
		for i := range p.Names {
			for t := stagger*time.Duration(i) + stagger/2; t < dur; t += w.AdvanceEvery {
				ops = append(ops, op{At: t, Kind: kAdvance, Plat: int32(i)})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// scheduleHash fingerprints a planned op list plus the daemon seed, so
// tests can show the schedule is a function of the benchmark seed alone.
func scheduleHash(daemonSeed int64, ops []op) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(daemonSeed))
	for _, o := range ops {
		put(uint64(o.At))
		put(uint64(o.Kind)<<40 | uint64(o.Shape)<<32 | uint64(uint32(o.Plat)))
		put(uint64(o.Observe))
		put(math.Float64bits(o.Factor))
		for i, it := range o.Items {
			put(uint64(uint32(it)) | uint64(o.Shapes[i])<<32)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// wirePredict is the /predict body for one platform and shape.
type wirePredict struct {
	Platform   string    `json:"platform"`
	N          int       `json:"n"`
	Iterations int       `json:"iterations"`
	Strategy   string    `json:"strategy,omitempty"`
	Levels     []float64 `json:"levels,omitempty"`
}

func (p *plan) predictBody(plat int32, sh uint8) wirePredict {
	s := p.W.Shapes[sh]
	return wirePredict{Platform: p.Names[plat], N: s.N, Iterations: s.Iterations, Strategy: s.Strategy, Levels: p.W.Levels}
}

// body encodes an op's request body.
func (p *plan) body(o *op) []byte {
	var v any
	switch o.Kind {
	case kPredict:
		v = p.predictBody(o.Plat, o.Shape)
	case kBatch:
		items := make([]wirePredict, len(o.Items))
		for i, t := range o.Items {
			items[i] = p.predictBody(t, o.Shapes[i])
		}
		v = map[string]any{"requests": items}
	case kAdvance:
		v = map[string]any{"platform": p.Names[o.Plat], "seconds": advanceSeconds}
	case kSchedule:
		s := p.W.Shapes[o.Shape]
		v = map[string]any{"jobs": []map[string]int{{"n": s.N, "iterations": 10}}}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps, slices and plain structs of numbers and strings
	}
	return b
}
