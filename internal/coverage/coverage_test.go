package coverage

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

func TestMapBuckets(t *testing.T) {
	m := NewMap(16)
	m.Hit(3)
	if !m.MergeNew() {
		t.Fatal("first hit must be new coverage")
	}
	m.Hit(3)
	if m.MergeNew() {
		t.Fatal("same count again must not be new")
	}
	// Two hits fall into a different bucket.
	m.Hit(3)
	m.Hit(3)
	if !m.MergeNew() {
		t.Fatal("count bucket change must be new")
	}
	// 2 again: nothing new.
	m.Hit(3)
	m.Hit(3)
	if m.MergeNew() {
		t.Fatal("repeated bucket must not be new")
	}
	// A different point is new.
	m.Hit(5)
	if !m.MergeNew() {
		t.Fatal("new point must be new coverage")
	}
	if m.PointsCovered() != 2 {
		t.Errorf("points covered = %d", m.PointsCovered())
	}
	if m.BucketBits() != 3 {
		t.Errorf("bucket bits = %d", m.BucketBits())
	}
}

func TestBucketBoundaries(t *testing.T) {
	// Counts within one bucket are not new; crossing a boundary is.
	bounds := []uint32{1, 2, 3, 4, 8, 16, 32, 128}
	m := NewMap(4)
	hits := uint32(0)
	for _, b := range bounds {
		for hits < b {
			m.Hit(0)
			hits++
		}
		if !m.MergeNew() {
			t.Errorf("count %d must open a new bucket", b)
		}
		hits = 0 // counts reset after merge; replay up to the next bound
		for i := uint32(0); i < b; i++ {
			m.Hit(0)
		}
		if m.MergeNew() {
			t.Errorf("repeat of count %d must not be new", b)
		}
		hits = 0
	}
}

func TestDiscardRun(t *testing.T) {
	m := NewMap(8)
	m.Hit(1)
	m.DiscardRun()
	if m.MergeNew() {
		t.Fatal("discarded run must not contribute coverage")
	}
	m.Hit(1)
	if !m.MergeNew() {
		t.Fatal("fresh hit after discard must be new")
	}
	m.Reset()
	if m.PointsCovered() != 0 || m.BucketBits() != 0 {
		t.Fatal("reset must clear everything")
	}
	m.Hit(1)
	if !m.MergeNew() {
		t.Fatal("hit after reset must be new")
	}
}

func TestMapIgnoresOutOfRange(t *testing.T) {
	m := NewMap(4)
	m.Hit(4)
	m.Hit(1 << 30)
	if m.MergeNew() {
		t.Fatal("out-of-range hits must be ignored")
	}
}

func TestParseSpecDefault(t *testing.T) {
	cfg, err := ParseSpec(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.RDZero || !cfg.RDRS1 || !cfg.Regs3 || !cfg.Rel || !cfg.ImmRel {
		t.Errorf("families missing: %+v", cfg)
	}
	if len(cfg.Values) != 5 || len(cfg.ImmValues) != 5 {
		t.Errorf("value lists: %v %v", cfg.Values, cfg.ImmValues)
	}
	if cfg.Values[0] != -1<<31 || cfg.Values[1] != 1<<31-1 || cfg.Values[2] != -1 {
		t.Errorf("values = %v", cfg.Values)
	}
	corners := []int64{-1 << 31, 1<<31 - 1, -1, 0, 1}
	want := RuleConfig{RDZero: true, RDRS1: true, Regs3: true, Rel: true, Values: corners, ImmRel: true, ImmValues: corners}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("DefaultSpec = %+v, want %+v", cfg, want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense line",
		"unknown: x",
		"values: 12zz",
		// Unknown tokens on a family line no longer disable (rd) or
		// enable (regs3) the family silently.
		"rd: bogus",
		"rd: zero bogus",
		"rdrs1: eq lt",
		"regs3: whatever",
		"rel: eq le",
		"immrel: ge",
		// A corner list past the cap would give point 256 the arg of
		// point 0 in an 8-bit (kind, arg) encoding.
		"values:" + strings.Repeat(" 1", maxCorners+1),
		"immvalues:" + strings.Repeat(" 0", maxCorners+1),
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
	// Comments, empty lines, empty family lines and a full corner list
	// are fine.
	for _, good := range []string{
		"# comment\n\nrd: zero\n",
		"rd:\nregs3:",
		"values:" + strings.Repeat(" 1", maxCorners),
	} {
		if _, err := ParseSpec(good); err != nil {
			t.Errorf("ParseSpec(%q): %v", good, err)
		}
	}
	cfg, err := ParseSpec("rd:\nregs3:")
	if err != nil || cfg.RDZero || cfg.Regs3 {
		t.Errorf("empty family lines must leave the families off: %+v, %v", cfg, err)
	}
}

func TestRuleSetPointCountMatchesPaperScale(t *testing.T) {
	rs := NewRuleSet(mustSpec(t))
	n := rs.NumPoints()
	// The paper reports 2281 additional coverage points for its rule set;
	// ours must land in the same ballpark (the exact number depends on
	// how the opcode set is enumerated).
	if n < 1200 || n > 3500 {
		t.Errorf("rule points = %d, expected paper-scale (~2281)", n)
	}
	t.Logf("rule coverage points: %d (paper: 2281)", n)
}

func mustSpec(t *testing.T) RuleConfig {
	t.Helper()
	cfg, err := ParseSpec(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRuleEval(t *testing.T) {
	cfg := mustSpec(t)
	rs, ref := NewRuleSet(cfg), newRefRuleSet(cfg)
	h := hart.New(isa.RV32I)
	// collect names the reference kinds of the points the compiled table
	// hits.
	collect := func(inst isa.Inst) map[uint8]bool {
		kinds := map[uint8]bool{}
		for _, id := range compiledHits(t, rs, &inst, h) {
			k, ok := ref.kindOf(inst.Op, id)
			if !ok {
				t.Fatalf("%v: hit %d is not one of the op's points", inst.Op, id)
			}
			kinds[k] = true
		}
		return kinds
	}

	// add x0, x1, x2: RD==x0, all regs different, values equal (both 0).
	h.X[1], h.X[2] = 0, 0
	k := collect(isa.Inst{Op: isa.OpADD, Rd: 0, Rs1: 1, Rs2: 2})
	for _, want := range []uint8{ruleRDZero, ruleRDNeRS1, rule3AllNe, ruleRelEq} {
		if !k[want] {
			t.Errorf("add x0,x1,x2: missing kind %d (got %v)", want, k)
		}
	}
	if k[ruleRDNonzero] || k[ruleRelLt] {
		t.Errorf("add x0,x1,x2: spurious kinds %v", k)
	}

	// add x5, x5, x5: RD==RS1, all equal.
	k = collect(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 5, Rs2: 5})
	if !k[rule3AllEq] || !k[ruleRDEqRS1] || !k[ruleRDNonzero] {
		t.Errorf("add x5,x5,x5: %v", k)
	}

	// Value corners: rs1 = MIN.
	h.X[7] = 0x80000000
	h.X[8] = 1
	k = collect(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 7, Rs2: 8})
	if !k[ruleRS1Val] || !k[ruleRS2Val] || !k[ruleRelLt] {
		t.Errorf("corner values: %v", k)
	}

	// Immediate corner: addi with imm = -2048 (the I-format MIN).
	k = collect(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 2, Imm: -2048})
	if !k[ruleImmVal] {
		t.Errorf("imm corner: %v", k)
	}
	// Immediate relation: imm > rs1 value.
	h.X[2] = 0xfffffff0 // -16
	k = collect(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 2, Imm: 5})
	if !k[ruleImmRelGt] || k[ruleImmRelLt] {
		t.Errorf("imm relation: %v", k)
	}
}

func TestRuleEvalNoPointsForBareOps(t *testing.T) {
	rs := NewRuleSet(mustSpec(t))
	h := hart.New(isa.RV32I)
	inst := isa.Inst{Op: isa.OpECALL}
	if hits := compiledHits(t, rs, &inst, h); len(hits) != 0 {
		t.Errorf("ecall hit rule points %v", hits)
	}
}

func TestCollectorRegions(t *testing.T) {
	c := NewCollector(V3())
	if c.NumPoints() <= 16384 {
		t.Errorf("v3 points = %d, must exceed the hash region alone", c.NumPoints())
	}
	// Distinct signals must not alias: an edge hit and a hash hit land on
	// different IDs.
	c.OnEdge(0)
	inst := isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 2, Rs2: 3, Raw: 0x003100b3}
	h := hart.New(isa.RV32I)
	c.OnInst(&inst, h)
	if !c.Map.MergeNew() {
		t.Fatal("hits must merge as new")
	}
	if c.Map.PointsCovered() < 2 {
		t.Errorf("points covered = %d, want >= 2 (edge + hash at least)", c.Map.PointsCovered())
	}
}

func TestConfigNames(t *testing.T) {
	for _, n := range []string{"v0", "v1", "v2", "v3"} {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("v9"); ok {
		t.Error("ByName(v9) must fail")
	}
	v0, v1, v2, v3 := NewCollector(V0()), NewCollector(V1()), NewCollector(V2()), NewCollector(V3())
	if !(v0.NumPoints() < v1.NumPoints() && v1.NumPoints() < v2.NumPoints() && v2.NumPoints() < v3.NumPoints()) {
		t.Errorf("config sizes not increasing: %d %d %d %d",
			v0.NumPoints(), v1.NumPoints(), v2.NumPoints(), v3.NumPoints())
	}
	if v2.NumPoints()-v1.NumPoints() != 4096 || v3.NumPoints()-v1.NumPoints() != 16384 {
		t.Errorf("hash regions wrong: v1=%d v2=%d v3=%d", v1.NumPoints(), v2.NumPoints(), v3.NumPoints())
	}
}

func TestHashStability(t *testing.T) {
	f := func(w uint32) bool { return fnv1a32(w) == fnv1a32(w) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// A one-bit flip changes the hash (not a proof, a smoke check over
	// many samples).
	diff := 0
	for w := uint32(0); w < 1000; w++ {
		if fnv1a32(w) != fnv1a32(w^1) {
			diff++
		}
	}
	if diff < 990 {
		t.Errorf("hash too weak: %d/1000 differ", diff)
	}
}

var _ exec.Hook = (*Collector)(nil)

// TestRunFootprintMatchesMergeNew: replaying footprints through
// MergeFootprint in run order must reproduce MergeNew's greedy decisions
// and final bitmap exactly.
func TestRunFootprintMatchesMergeNew(t *testing.T) {
	runs := [][]uint32{
		{1, 1, 2},       // novel: points 1 (x2), 2
		{1, 1, 2},       // identical: nothing new
		{1, 2, 2, 2, 3}, // new point 3, new bucket for 2
		{},              // empty run
		{3, 3, 3, 3},    // new bucket for 3
	}
	serial := NewMap(8)
	replay := NewMap(8)
	var footprints [][]RunPoint
	for _, run := range runs {
		scratch := NewMap(8) // per-"worker" map, as in the parallel replay
		for _, id := range run {
			scratch.Hit(id)
		}
		footprints = append(footprints, scratch.RunFootprint())
		scratch.DiscardRun()

		for _, id := range run {
			serial.Hit(id)
		}
		want := serial.MergeNew()
		got := replay.MergeFootprint(footprints[len(footprints)-1])
		if got != want {
			t.Errorf("run %v: MergeFootprint=%v MergeNew=%v", run, got, want)
		}
	}
	if serial.BucketBits() != replay.BucketBits() {
		t.Errorf("bucket bits: serial %d, replay %d", serial.BucketBits(), replay.BucketBits())
	}
	if got, want := serial.PointsCovered(), replay.PointsCovered(); got != want {
		t.Errorf("points covered: serial %d, replay %d", want, got)
	}
}

// TestRunFootprintLeavesRunPending: taking a footprint must not consume
// the run — MergeNew afterwards still works.
func TestRunFootprintLeavesRunPending(t *testing.T) {
	m := NewMap(4)
	m.Hit(1)
	m.Hit(1)
	fp := m.RunFootprint()
	if len(fp) != 1 || fp[0].ID != 1 || fp[0].Bucket == 0 {
		t.Fatalf("footprint: %+v", fp)
	}
	if !m.MergeNew() {
		t.Error("MergeNew after RunFootprint must still merge the run")
	}
	if m.RunFootprint() != nil {
		t.Error("footprint of an empty pending run must be nil")
	}
	// Out-of-range IDs in a foreign footprint are ignored.
	small := NewMap(2)
	if small.MergeFootprint([]RunPoint{{ID: 99, Bucket: 1}}) {
		t.Error("out-of-range footprint point must not merge")
	}
}

func TestFrontierRoundTrip(t *testing.T) {
	m := NewMap(64)
	for i := 0; i < 10; i++ {
		m.Hit(uint32(i))
		m.Hit(uint32(i)) // count 2 -> second bucket bit for these points
	}
	m.Hit(3)
	m.MergeNew()

	fr := m.Frontier()
	bits := m.BucketBits()

	m2 := NewMap(64)
	m2.Hit(63) // pending run state must be discarded by RestoreFrontier
	if err := m2.RestoreFrontier(fr); err != nil {
		t.Fatal(err)
	}
	if m2.BucketBits() != bits {
		t.Fatalf("bits %d != %d after restore", m2.BucketBits(), bits)
	}
	// Replaying an input the frontier has seen must not be novel; a new
	// point must be.
	for i := 0; i < 10; i++ {
		m2.Hit(uint32(i))
		m2.Hit(uint32(i))
	}
	m2.Hit(3)
	if m2.MergeNew() {
		t.Fatal("already-seen coverage reported novel after restore")
	}
	m2.Hit(40)
	if !m2.MergeNew() {
		t.Fatal("new point not novel after restore")
	}

	// Frontier must be a copy, not an alias.
	fr[0] = 0xff
	if m.Frontier()[0] == 0xff {
		t.Fatal("Frontier aliases internal state")
	}

	if err := m2.RestoreFrontier(make([]byte, 3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// onInstMix is a fixed instruction and hart-state mix for the collector's
// allocation pin and benchmark: every op of the database with rotating
// register fields and immediates, over registers seeded with corners.
func onInstMix() ([]isa.Inst, *hart.Hart) {
	h := hart.New(isa.RV32I)
	vals := []uint32{0, 1, 0xffffffff, 0x80000000, 0x7fffffff, 42, 0xfffff800, 7}
	for i := range h.X {
		h.X[i] = vals[i%len(vals)]
	}
	imms := []int32{0, -1, 1, -2048, 2047, 31, 5, -16}
	var mix []isa.Inst
	for i := range isa.Instructions {
		op := isa.Instructions[i].Op
		for j := 0; j < 4; j++ {
			n := i*4 + j
			mix = append(mix, isa.Inst{
				Op: op, Rd: isa.Reg(n % 8), Rs1: isa.Reg(n * 3 % 8), Rs2: isa.Reg(n * 5 % 8),
				Imm: imms[n%len(imms)], Raw: isa.Instructions[i].Match | uint32(n)<<7,
			})
		}
	}
	return mix, h
}

// TestCollectorAllocFree pins the coverage hot path: once the map's
// touched list has grown, a run of v3 OnInst/OnEdge calls and the merge
// after it allocate nothing.
func TestCollectorAllocFree(t *testing.T) {
	c := NewCollector(V3())
	mix, h := onInstMix()
	run := func() {
		for i := range mix {
			c.OnInst(&mix[i], h)
			c.OnEdge(uint32(i) % uint32(exec.EdgeSpace()))
		}
		c.Map.MergeNew()
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("steady-state OnInst+OnEdge+MergeNew: %v allocs per run, want 0", n)
	}
}

// BenchmarkCollectorOnInst measures the v3 per-instruction hook (hash and
// rule coverage) over the fixed mix, merging after each pass like a run.
func BenchmarkCollectorOnInst(b *testing.B) {
	c := NewCollector(V3())
	mix, h := onInstMix()
	for i := range mix { // grow the map's touched list before timing
		c.OnInst(&mix[i], h)
	}
	c.Map.MergeNew()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(mix)
		c.OnInst(&mix[k], h)
		if k == len(mix)-1 {
			c.Map.MergeNew()
		}
	}
}
