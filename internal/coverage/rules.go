package coverage

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// RuleConfig selects which rule families the specification enables. The
// paper provides the custom coverage "through an external specification
// file"; ParseSpec reads the textual form below, and DefaultSpec
// reproduces the paper's rule set (section IV-E).
type RuleConfig struct {
	RDZero    bool    // RD == x0 / RD != x0
	RDRS1     bool    // RD == RS1 / RD != RS1
	Regs3     bool    // three-register relations (all equal / all different / two equal)
	Rel       bool    // Reg[RS1] OP Reg[RS2] for OP in {==, !=, <, >}
	Values    []int64 // corner values for Reg[RS*] (the paper: MIN, MAX, -1, 0, 1)
	ImmRel    bool    // imm OP Reg[RS1]
	ImmValues []int64 // corner values for immediates
}

// DefaultSpec is the specification used for the paper's v1..v3
// configurations.
const DefaultSpec = `# custom coverage specification (paper section IV-E)
rd:        zero nonzero
rdrs1:     eq ne
regs3:     alleq allne someeq
rel:       eq ne lt gt
values:    min max -1 0 1
immrel:    eq ne lt gt
immvalues: min max -1 0 1
`

// maxCorners caps a values/immvalues list. Every corner adds a coverage
// point to each op that reads the register (or has an immediate), so the
// cap bounds the map a specification can demand.
const maxCorners = 255

// ParseSpec reads a rule specification. A family line enables its family
// when it names at least one of the family's tokens; an unknown token, an
// unknown family or a corner list longer than maxCorners is an error.
func ParseSpec(src string) (RuleConfig, error) {
	var cfg RuleConfig
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			return cfg, fmt.Errorf("coverage: spec line %d: missing ':'", lineNo+1)
		}
		fields := strings.Fields(rest)
		var err error
		switch strings.TrimSpace(key) {
		case "rd":
			cfg.RDZero, err = family(fields, "zero", "nonzero")
		case "rdrs1":
			cfg.RDRS1, err = family(fields, "eq", "ne")
		case "regs3":
			cfg.Regs3, err = family(fields, "alleq", "allne", "someeq")
		case "rel":
			cfg.Rel, err = family(fields, "eq", "ne", "lt", "gt")
		case "values":
			cfg.Values, err = parseValues(fields)
		case "immrel":
			cfg.ImmRel, err = family(fields, "eq", "ne", "lt", "gt")
		case "immvalues":
			cfg.ImmValues, err = parseValues(fields)
		default:
			return cfg, fmt.Errorf("coverage: spec line %d: unknown family %q", lineNo+1, key)
		}
		if err != nil {
			return cfg, fmt.Errorf("coverage: spec line %d: %v", lineNo+1, err)
		}
	}
	return cfg, nil
}

// family reports whether a family line enables its family (it names at
// least one token), rejecting tokens the family does not define.
func family(fields []string, tokens ...string) (bool, error) {
	for _, f := range fields {
		if !slices.Contains(tokens, f) {
			return false, fmt.Errorf("unknown token %q (want %s)", f, strings.Join(tokens, ", "))
		}
	}
	return len(fields) > 0, nil
}

func parseValues(fields []string) ([]int64, error) {
	if len(fields) > maxCorners {
		return nil, fmt.Errorf("%d corner values, at most %d allowed", len(fields), maxCorners)
	}
	var out []int64
	for _, f := range fields {
		switch f {
		case "min":
			out = append(out, int64(-1)<<31)
		case "max":
			out = append(out, 1<<31-1)
		default:
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", f)
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// Rule families. NewRuleSet gives each op the IDs of its families in
// this order, a contiguous run per family, so evaluating the families in
// this order hits an instruction's points in ascending ID order.
const (
	famRD     uint8 = 1 << iota // RD == x0, RD != x0
	famRDRS1                    // RD == RS1, RD != RS1
	famRegs3                    // all equal, all different, one pair equal, RD == RS2, RS1 == RS2
	famRel                      // Reg[RS1] ==, !=, <, > Reg[RS2]
	famRS1Val                   // Reg[RS1] == corner, one point per value
	famRS2Val                   // Reg[RS2] == corner, one point per value
	famImmVal                   // imm == corner, one point per immediate value
	famImmRel                   // imm ==, !=, <, > Reg[RS1]
)

// opRules is one op's compiled rules: the first ID of each family the op
// has, with every operand the evaluation compares against resolved once.
type opRules struct {
	fams                           uint8 // famXxx bits of the op's families
	readsRS1, readsRS2             bool  // integer source registers, read for the value rules
	rd, rdRS1, regs3, rel          uint32
	rs1Val, rs2Val, immVal, immRel uint32
	imm                            []int32 // immediate corners for the op's format
}

// RuleSet is the compiled coverage specification: per operation, the
// rule families that apply and the globally unique IDs of their points.
type RuleSet struct {
	ops   []opRules // indexed by Op
	vals  []int32   // register-value corners as signed 32-bit values
	total int
}

// NewRuleSet compiles a configuration against the instruction database.
func NewRuleSet(cfg RuleConfig) *RuleSet {
	rs := &RuleSet{ops: make([]opRules, isa.NumOps())}
	for _, v := range cfg.Values {
		rs.vals = append(rs.vals, int32(v))
	}
	next := uint32(0)
	// alloc records that the op has fam with n points and returns the
	// family's first ID.
	alloc := func(r *opRules, fam uint8, n int) uint32 {
		r.fams |= fam
		first := next
		next += uint32(n)
		return first
	}
	for i := range isa.Instructions {
		in := &isa.Instructions[i]
		r := &rs.ops[in.Op]
		fl := in.Flags
		intRD := fl.Is(isa.FlagWritesRD)
		hasRD := intRD || fl.Is(isa.FlagFPRd)
		hasRS1 := fl.Is(isa.FlagReadsRS1) || fl.Is(isa.FlagFPRs1)
		hasRS2 := fl.Is(isa.FlagReadsRS2) || fl.Is(isa.FlagFPRs2)
		intRS1 := fl.Is(isa.FlagReadsRS1)
		intRS2 := fl.Is(isa.FlagReadsRS2)
		hasImm := in.Fmt == isa.FmtI || in.Fmt == isa.FmtIShift || in.Fmt == isa.FmtS ||
			in.Fmt == isa.FmtB || in.Fmt == isa.FmtU || in.Fmt == isa.FmtJ
		r.readsRS1, r.readsRS2 = intRS1, intRS2

		if cfg.RDZero && intRD {
			r.rd = alloc(r, famRD, 2)
		}
		if cfg.RDRS1 && intRD && hasRS1 && !fl.Is(isa.FlagFPRs1) {
			r.rdRS1 = alloc(r, famRDRS1, 2)
		}
		if cfg.Regs3 && hasRD && hasRS1 && hasRS2 {
			r.regs3 = alloc(r, famRegs3, 5)
		}
		if cfg.Rel && intRS1 && intRS2 {
			r.rel = alloc(r, famRel, 4)
		}
		if intRS1 && len(rs.vals) > 0 {
			r.rs1Val = alloc(r, famRS1Val, len(rs.vals))
		}
		if intRS2 && len(rs.vals) > 0 {
			r.rs2Val = alloc(r, famRS2Val, len(rs.vals))
		}
		if hasImm {
			if len(cfg.ImmValues) > 0 {
				r.immVal = alloc(r, famImmVal, len(cfg.ImmValues))
				for _, v := range cfg.ImmValues {
					r.imm = append(r.imm, immCorner(v, in.Fmt))
				}
			}
			if cfg.ImmRel && intRS1 {
				r.immRel = alloc(r, famImmRel, 4)
			}
		}
	}
	rs.total = int(next)
	return rs
}

// NumPoints returns the total number of coverage points the specification
// defines (the paper reports 2281 for its rule set).
func (rs *RuleSet) NumPoints() int { return rs.total }

// immCorner maps a configured corner value onto the immediate's own range
// (MIN/MAX refer to the format's extremes; the paper uses "similar rules
// for immediates").
func immCorner(v int64, fmtKind isa.Format) int32 {
	const i32min = -1 << 31
	const i32max = 1<<31 - 1
	switch fmtKind {
	case isa.FmtI, isa.FmtS:
		if v == i32min {
			return -2048
		}
		if v == i32max {
			return 2047
		}
	case isa.FmtIShift:
		if v == i32min {
			return 0
		}
		if v == i32max {
			return 31
		}
	case isa.FmtB:
		if v == i32min {
			return -4096
		}
		if v == i32max {
			return 4094
		}
	case isa.FmtU:
		if v == i32min {
			return int32(-1) << 31
		}
		if v == i32max {
			return int32(0x7ffff000)
		}
	case isa.FmtJ:
		if v == i32min {
			return -1 << 20
		}
		if v == i32max {
			return 1<<20 - 2
		}
	}
	return int32(v)
}

// hit records, on m at offset base, every rule point the instruction hits,
// in ascending ID order. Each family is decided by a few compares; a
// relation family hits exactly the points whose relation holds.
func (rs *RuleSet) hit(inst *isa.Inst, h *hart.Hart, m *Map, base uint32) {
	r := &rs.ops[inst.Op]
	fams := r.fams
	if fams == 0 {
		return
	}
	var rv1, rv2 int32
	if r.readsRS1 {
		rv1 = int32(h.ReadX(inst.Rs1))
	}
	if r.readsRS2 {
		rv2 = int32(h.ReadX(inst.Rs2))
	}
	rd, rs1, rs2 := inst.Rd, inst.Rs1, inst.Rs2
	if fams&famRD != 0 {
		m.Hit(base + r.rd + b2u(rd != 0))
	}
	if fams&famRDRS1 != 0 {
		m.Hit(base + r.rdRS1 + b2u(rd != rs1))
	}
	if fams&famRegs3 != 0 {
		// Register equality is transitive, so either all three pairs
		// match, none does, or exactly one does.
		a, b, c := rd == rs1, rs1 == rs2, rd == rs2
		switch {
		case a && b:
			m.Hit(base + r.regs3) // all equal
		case !a && !b && !c:
			m.Hit(base + r.regs3 + 1) // all different
		default:
			m.Hit(base + r.regs3 + 2) // exactly one pair equal
		}
		if c {
			m.Hit(base + r.regs3 + 3)
		}
		if b {
			m.Hit(base + r.regs3 + 4)
		}
	}
	if fams&famRel != 0 {
		relHit(m, base+r.rel, rv1, rv2)
	}
	if fams&famRS1Val != 0 {
		cornerHit(m, base+r.rs1Val, rs.vals, rv1)
	}
	if fams&famRS2Val != 0 {
		cornerHit(m, base+r.rs2Val, rs.vals, rv2)
	}
	if fams&famImmVal != 0 {
		cornerHit(m, base+r.immVal, r.imm, inst.Imm)
	}
	if fams&famImmRel != 0 {
		relHit(m, base+r.immRel, inst.Imm, rv1)
	}
}

// relHit records the relation points (==, !=, <, >) at first..first+3
// that hold for x OP y: == alone, or != with one of < and >.
func relHit(m *Map, first uint32, x, y int32) {
	if x == y {
		m.Hit(first)
		return
	}
	m.Hit(first + 1)
	m.Hit(first + 2 + b2u(x > y))
}

// cornerHit records point first+i for every corner i equal to v.
func cornerHit(m *Map, first uint32, corners []int32, v int32) {
	for i, c := range corners {
		if c == v {
			m.Hit(first + uint32(i))
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
