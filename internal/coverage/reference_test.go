package coverage

import (
	"math/rand/v2"
	"slices"
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// The (kind, arg) rule interpreter that the compiled RuleSet replaced. It
// is kept here as the reference the compiled table is checked against:
// per op, a list of rule points, each evaluated by a switch on its kind.

// rule kinds evaluated per instruction.
const (
	ruleRDZero uint8 = iota
	ruleRDNonzero
	ruleRDEqRS1
	ruleRDNeRS1
	rule3AllEq
	rule3AllNe
	rule3SomeEq
	rule3RDEqRS2
	rule3RS1EqRS2
	ruleRelEq
	ruleRelNe
	ruleRelLt
	ruleRelGt
	ruleRS1Val // arg = value index
	ruleRS2Val
	ruleImmVal
	ruleImmRelEq
	ruleImmRelNe
	ruleImmRelLt
	ruleImmRelGt
)

type rulePoint struct {
	kind uint8
	arg  uint8
}

// refRuleSet is the interpreted specification: per operation, the list of
// applicable coverage points with globally unique IDs.
type refRuleSet struct {
	cfg    RuleConfig
	points [][]rulePoint // indexed by Op, parallel ids
	ids    [][]uint32
	total  int
}

func newRefRuleSet(cfg RuleConfig) *refRuleSet {
	rs := &refRuleSet{cfg: cfg}
	n := isa.NumOps()
	rs.points = make([][]rulePoint, n)
	rs.ids = make([][]uint32, n)
	next := uint32(0)
	add := func(op isa.Op, kind, arg uint8) {
		rs.points[op] = append(rs.points[op], rulePoint{kind, arg})
		rs.ids[op] = append(rs.ids[op], next)
		next++
	}
	for i := range isa.Instructions {
		in := &isa.Instructions[i]
		fl := in.Flags
		intRD := fl.Is(isa.FlagWritesRD)
		hasRD := intRD || fl.Is(isa.FlagFPRd)
		hasRS1 := fl.Is(isa.FlagReadsRS1) || fl.Is(isa.FlagFPRs1)
		hasRS2 := fl.Is(isa.FlagReadsRS2) || fl.Is(isa.FlagFPRs2)
		intRS1 := fl.Is(isa.FlagReadsRS1)
		intRS2 := fl.Is(isa.FlagReadsRS2)
		hasImm := in.Fmt == isa.FmtI || in.Fmt == isa.FmtIShift || in.Fmt == isa.FmtS ||
			in.Fmt == isa.FmtB || in.Fmt == isa.FmtU || in.Fmt == isa.FmtJ

		if cfg.RDZero && intRD {
			add(in.Op, ruleRDZero, 0)
			add(in.Op, ruleRDNonzero, 0)
		}
		if cfg.RDRS1 && intRD && hasRS1 && !fl.Is(isa.FlagFPRs1) {
			add(in.Op, ruleRDEqRS1, 0)
			add(in.Op, ruleRDNeRS1, 0)
		}
		if cfg.Regs3 && hasRD && hasRS1 && hasRS2 {
			add(in.Op, rule3AllEq, 0)
			add(in.Op, rule3AllNe, 0)
			add(in.Op, rule3SomeEq, 0)
			add(in.Op, rule3RDEqRS2, 0)
			add(in.Op, rule3RS1EqRS2, 0)
		}
		if cfg.Rel && intRS1 && intRS2 {
			add(in.Op, ruleRelEq, 0)
			add(in.Op, ruleRelNe, 0)
			add(in.Op, ruleRelLt, 0)
			add(in.Op, ruleRelGt, 0)
		}
		if intRS1 {
			for vi := range cfg.Values {
				add(in.Op, ruleRS1Val, uint8(vi))
			}
		}
		if intRS2 {
			for vi := range cfg.Values {
				add(in.Op, ruleRS2Val, uint8(vi))
			}
		}
		if hasImm {
			for vi := range cfg.ImmValues {
				add(in.Op, ruleImmVal, uint8(vi))
			}
			if cfg.ImmRel && intRS1 {
				add(in.Op, ruleImmRelEq, 0)
				add(in.Op, ruleImmRelNe, 0)
				add(in.Op, ruleImmRelLt, 0)
				add(in.Op, ruleImmRelGt, 0)
			}
		}
	}
	rs.total = int(next)
	return rs
}

// Eval reports the rule points the instruction hits, invoking hit for each.
func (rs *refRuleSet) Eval(inst *isa.Inst, h *hart.Hart, hit func(uint32)) {
	pts := rs.points[inst.Op]
	if len(pts) == 0 {
		return
	}
	ids := rs.ids[inst.Op]
	info := inst.Info()
	var rv1, rv2 int32
	if info.Flags.Is(isa.FlagReadsRS1) {
		rv1 = int32(h.ReadX(inst.Rs1))
	}
	if info.Flags.Is(isa.FlagReadsRS2) {
		rv2 = int32(h.ReadX(inst.Rs2))
	}
	for i, p := range pts {
		ok := false
		switch p.kind {
		case ruleRDZero:
			ok = inst.Rd == 0
		case ruleRDNonzero:
			ok = inst.Rd != 0
		case ruleRDEqRS1:
			ok = inst.Rd == inst.Rs1
		case ruleRDNeRS1:
			ok = inst.Rd != inst.Rs1
		case rule3AllEq:
			ok = inst.Rd == inst.Rs1 && inst.Rs1 == inst.Rs2
		case rule3AllNe:
			ok = inst.Rd != inst.Rs1 && inst.Rs1 != inst.Rs2 && inst.Rd != inst.Rs2
		case rule3RDEqRS2:
			ok = inst.Rd == inst.Rs2
		case rule3RS1EqRS2:
			ok = inst.Rs1 == inst.Rs2
		case rule3SomeEq:
			eq := 0
			if inst.Rd == inst.Rs1 {
				eq++
			}
			if inst.Rs1 == inst.Rs2 {
				eq++
			}
			if inst.Rd == inst.Rs2 {
				eq++
			}
			ok = eq == 1
		case ruleRelEq:
			ok = rv1 == rv2
		case ruleRelNe:
			ok = rv1 != rv2
		case ruleRelLt:
			ok = rv1 < rv2
		case ruleRelGt:
			ok = rv1 > rv2
		case ruleRS1Val:
			ok = int64(rv1) == corner32(rs.cfg.Values[p.arg])
		case ruleRS2Val:
			ok = int64(rv2) == corner32(rs.cfg.Values[p.arg])
		case ruleImmVal:
			ok = inst.Imm == immCorner(rs.cfg.ImmValues[p.arg], info.Fmt)
		case ruleImmRelEq:
			ok = inst.Imm == rv1
		case ruleImmRelNe:
			ok = inst.Imm != rv1
		case ruleImmRelLt:
			ok = inst.Imm < rv1
		case ruleImmRelGt:
			ok = inst.Imm > rv1
		}
		if ok {
			hit(ids[i])
		}
	}
}

// corner32 interprets a configured corner value as a signed 32-bit value.
func corner32(v int64) int64 { return int64(int32(v)) }

// kindOf returns the reference kind of rule point id of op.
func (rs *refRuleSet) kindOf(op isa.Op, id uint32) (uint8, bool) {
	if i := slices.Index(rs.ids[op], id); i >= 0 {
		return rs.points[op][i].kind, true
	}
	return 0, false
}

// compiledHits returns the rule IDs the compiled table records for one
// instruction, in recording order. A rule point is hit at most once per
// instruction, so a fresh map's touched list is the exact hit sequence;
// a point recorded twice fails the test.
func compiledHits(t testing.TB, rs *RuleSet, inst *isa.Inst, h *hart.Hart) []uint32 {
	t.Helper()
	m := NewMap(rs.NumPoints())
	rs.hit(inst, h, m, 0)
	for _, id := range m.touched {
		if m.counts[id] != 1 {
			t.Fatalf("%v: compiled table hit point %d %d times", inst.Op, id, m.counts[id])
		}
	}
	return slices.Clone(m.touched)
}

// compiledIDs lists every rule ID the compiled table assigns to op, in
// family order.
func compiledIDs(rs *RuleSet, op isa.Op) []uint32 {
	r := &rs.ops[op]
	var ids []uint32
	span := func(fam uint8, first uint32, n int) {
		if r.fams&fam != 0 {
			for i := 0; i < n; i++ {
				ids = append(ids, first+uint32(i))
			}
		}
	}
	span(famRD, r.rd, 2)
	span(famRDRS1, r.rdRS1, 2)
	span(famRegs3, r.regs3, 5)
	span(famRel, r.rel, 4)
	span(famRS1Val, r.rs1Val, len(rs.vals))
	span(famRS2Val, r.rs2Val, len(rs.vals))
	span(famImmVal, r.immVal, len(r.imm))
	span(famImmRel, r.immRel, 4)
	return ids
}

// checkSameLayout fails unless the compiled table gives every op exactly
// the reference's IDs, so every compiled ID is below NumPoints.
func checkSameLayout(t testing.TB, rs *RuleSet, ref *refRuleSet) {
	t.Helper()
	if rs.NumPoints() != ref.total {
		t.Fatalf("compiled %d points, reference %d", rs.NumPoints(), ref.total)
	}
	for op := 0; op < isa.NumOps(); op++ {
		if got, want := compiledIDs(rs, isa.Op(op)), ref.ids[op]; !slices.Equal(got, want) {
			t.Fatalf("%v: compiled IDs %v, reference %v", isa.Op(op), got, want)
		}
	}
}

// referenceHits returns the rule IDs the reference reports, in order.
func referenceHits(ref *refRuleSet, inst *isa.Inst, h *hart.Hart) []uint32 {
	var ids []uint32
	ref.Eval(inst, h, func(id uint32) { ids = append(ids, id) })
	return ids
}

// checkSameHits fails unless the compiled table and the reference hit the
// same IDs in the same order for inst, every one of them in range.
func checkSameHits(t testing.TB, rs *RuleSet, ref *refRuleSet, inst *isa.Inst, h *hart.Hart) {
	t.Helper()
	got := compiledHits(t, rs, inst, h)
	want := referenceHits(ref, inst, h)
	if !slices.Equal(got, want) {
		t.Fatalf("%v rd=%d rs1=%d rs2=%d imm=%d x[rs1]=%#x x[rs2]=%#x: compiled hits %v, reference %v",
			inst.Op, inst.Rd, inst.Rs1, inst.Rs2, inst.Imm, h.ReadX(inst.Rs1), h.ReadX(inst.Rs2), got, want)
	}
	for _, id := range want {
		if int(id) >= rs.NumPoints() {
			t.Fatalf("%v: rule ID %d out of range (%d points)", inst.Op, id, rs.NumPoints())
		}
	}
}

// diffSpecs are the specifications the differential checks run under: the
// paper's, each family alone, duplicated and out-of-int32 corners, and the
// empty spec.
var diffSpecs = []string{
	DefaultSpec,
	"rd: zero",
	"rdrs1: ne",
	"regs3: someeq",
	"rel: lt",
	"values: 0 0 -1 min max 0x80000000 0x1ffffffff",
	"immrel: eq\nimmvalues: min max 2047 -2048 31 0",
	"immvalues: 0 0 min min max",
	"",
}

func mustParse(t testing.TB, spec string) RuleConfig {
	t.Helper()
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return cfg
}

// pickValue draws a register or immediate value, mostly near the corners
// the specifications name so that value rules fire often.
func pickValue(r *rand.Rand, corners []int64) uint32 {
	switch r.IntN(4) {
	case 0:
		if len(corners) > 0 {
			return uint32(corners[r.IntN(len(corners))])
		}
	case 1:
		return uint32(r.IntN(5)) - 2
	}
	return r.Uint32()
}

// TestRuleSetCompiledMatchesReference checks the same-IDs-same-order
// invariant over random instructions and hart states for every op under
// each differential specification.
func TestRuleSetCompiledMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, spec := range diffSpecs {
		cfg := mustParse(t, spec)
		rs, ref := NewRuleSet(cfg), newRefRuleSet(cfg)
		checkSameLayout(t, rs, ref)
		corners := append(slices.Clone(cfg.Values), cfg.ImmValues...)
		corners = append(corners, -2048, 2047, 4094, -4096, 31, 0x7ffff000, 1<<20-2, -1<<20)
		h := hart.New(isa.RV32I)
		for iter := 0; iter < 200; iter++ {
			for i := range h.X {
				h.X[i] = pickValue(r, corners)
			}
			inst := isa.Inst{
				Rd:  isa.Reg(r.IntN(4)),
				Rs1: isa.Reg(r.IntN(4)),
				Rs2: isa.Reg(r.IntN(4)),
				Imm: int32(pickValue(r, corners)),
			}
			if r.IntN(2) == 0 {
				inst.Rd, inst.Rs1, inst.Rs2 = isa.Reg(r.IntN(32)), isa.Reg(r.IntN(32)), isa.Reg(r.IntN(32))
			}
			for op := 0; op < isa.NumOps(); op++ {
				inst.Op = isa.Op(op)
				checkSameHits(t, rs, ref, &inst, h)
			}
		}
	}
}

// FuzzRuleSetCompiledDifferential feeds arbitrary instruction fields,
// register values and specifications to the compiled table and to the
// reference interpreter: for every op, both must hit the same IDs in the
// same order, all below NumPoints. A spec that does not parse falls back
// to DefaultSpec so every input still exercises the rules.
func FuzzRuleSetCompiledDifferential(f *testing.F) {
	for i, spec := range diffSpecs {
		f.Add(spec, uint8(i), uint8(i+1), uint8(i+2), int32(-2048+i), uint32(0x80000000), uint32(i))
	}
	f.Add(DefaultSpec, uint8(5), uint8(5), uint8(5), int32(4094), uint32(0xffffffff), uint32(0x7fffffff))
	f.Add(DefaultSpec, uint8(0), uint8(0), uint8(0), int32(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, spec string, rd, rs1, rs2 uint8, imm int32, v1, v2 uint32) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			cfg = mustParse(t, DefaultSpec)
		}
		rs, ref := NewRuleSet(cfg), newRefRuleSet(cfg)
		checkSameLayout(t, rs, ref)
		inst := isa.Inst{Rd: isa.Reg(rd % isa.NumRegs), Rs1: isa.Reg(rs1 % isa.NumRegs), Rs2: isa.Reg(rs2 % isa.NumRegs), Imm: imm}
		h := hart.New(isa.RV32I)
		h.WriteX(inst.Rs1, v1)
		h.WriteX(inst.Rs2, v2)
		for op := 0; op < isa.NumOps(); op++ {
			inst.Op = isa.Op(op)
			checkSameHits(t, rs, ref, &inst, h)
		}
	})
}

// FuzzParseSpec: any input yields an error or a specification, never a
// panic, and an accepted specification builds a RuleSet whose hits all
// lie below NumPoints.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range diffSpecs {
		f.Add(spec)
	}
	f.Add("rd: bogus")
	f.Add("values: 1 2 3\nvalues:\n# x\nrel: eq ne : lt")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if len(cfg.Values) > maxCorners || len(cfg.ImmValues) > maxCorners {
			t.Fatalf("accepted %d/%d corners, cap %d", len(cfg.Values), len(cfg.ImmValues), maxCorners)
		}
		rs, ref := NewRuleSet(cfg), newRefRuleSet(cfg)
		checkSameLayout(t, rs, ref)
		h := hart.New(isa.RV32I)
		for i := range h.X {
			h.X[i] = uint32(i) - 2
		}
		for op := 0; op < isa.NumOps(); op++ {
			inst := isa.Inst{Op: isa.Op(op), Rd: 1, Rs1: 1, Rs2: 2}
			checkSameHits(t, rs, ref, &inst, h)
		}
	})
}
