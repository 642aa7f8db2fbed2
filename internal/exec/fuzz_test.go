package exec

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// The differential harness runs the same bytestream through the classical
// decode loop and the predecoded fast path and demands indistinguishable
// behaviour: identical hart state, trap causes and counts, memory
// contents, timeout classification, coverage edge sequences and decoder
// panics. Each path is driven twice, by a Step loop and by the budgeted
// Executor.Run the simulators use. The selector byte picks the ISA
// configuration and the decoder/executor quirk set, so quirk-dependent
// decodes (loose masks, reserved RVC, crash patterns) are diffed too.

const fuzzCodeSpan = 0x800 // predecoded window [0, fuzzCodeSpan); covers the trap handler

var fuzzCfgs = []isa.Config{isa.RV32I, isa.RV32IM, isa.RV32IMC, isa.RV32GC}

var fuzzQuirks = []isa.Quirks{
	{}, // reference decoder
	{LooseEcallMask: true, AllowReservedC: true, LooseFunct7: true,
		InvalidBranchFunct3: true, CrashOnPattern: true, CustomAsNOP: true},
	{CrashOnPattern: true},
}

// diffTrace records the per-instruction observation sequence: what the
// coverage hook saw, in order. Any fast/slow divergence in dispatch,
// trap-vs-execute decisions or edge IDs shows up here.
type diffTrace struct {
	events []diffEvent
	edges  []uint32
}

type diffEvent struct {
	pc  uint32
	op  isa.Op
	raw uint32
}

func (tr *diffTrace) OnInst(in *isa.Inst, h *hart.Hart) {
	tr.events = append(tr.events, diffEvent{h.PC, in.Op, in.Raw})
}

func (tr *diffTrace) OnEdge(edge uint32) { tr.edges = append(tr.edges, edge) }

type diffResult struct {
	cpu      hart.Hart
	mem      []byte
	halted   bool
	insts    uint64
	traps    uint64
	timedOut bool
	panicked bool
	panicMsg string
	stats    CacheStats
	trace    *diffTrace
}

// diffLimit is the instruction budget of one differential run.
const diffLimit = 3000

// runDiff executes bs from address 0 with the trap handler of newExec,
// bounded by diffLimit instructions, and captures everything observable.
// pre attaches a decode cache; run drives the executor through
// Run(diffLimit) instead of a Step loop.
func runDiff(bs []byte, cfg isa.Config, q isa.Quirks, xq Quirks, pre, run bool) diffResult {
	m := mem.New(0, 0x8000)
	if len(bs) > 0x600 {
		bs = bs[:0x600]
	}
	if err := m.LoadImage(0, bs); err != nil {
		panic(err)
	}
	if err := m.Write32(testHandler, enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr})); err != nil {
		panic(err)
	}
	dec := &isa.Decoder{Quirks: q}
	cpu := hart.New(cfg)
	cpu.Mtvec = testHandler
	e := New(cpu, m, dec)
	e.HaltAddr = testHaltAddr
	e.Quirks = xq
	if pre {
		code, err := m.ReadBytes(0, fuzzCodeSpan)
		if err != nil {
			panic(err)
		}
		e.Cache = NewDecodeCache(dec.Predecode(0, code), cfg)
	}
	tr := &diffTrace{}
	e.Hook = tr
	res := diffResult{trace: tr}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.panicked = true
				res.panicMsg = fmt.Sprint(r)
			}
		}()
		if run {
			res.timedOut = e.Run(diffLimit) == ErrTimeout
			return
		}
		for i := 0; i < diffLimit && !e.Halted; i++ {
			e.Step()
		}
		res.timedOut = !e.Halted
	}()
	res.cpu = *cpu
	res.halted = e.Halted
	res.insts = e.InstCount
	res.traps = e.TrapCount
	res.stats = e.Cache.Stats()
	res.mem, _ = m.ReadBytes(0, 0x8000)
	return res
}

// compareDiff fails on any observable divergence between two runs of bs.
func compareDiff(t *testing.T, label string, bs []byte, want, got diffResult) {
	t.Helper()
	if want.panicked != got.panicked || want.panicMsg != got.panicMsg {
		t.Fatalf("%s: panic diverged on %x: (%v, %q) vs (%v, %q)",
			label, bs, want.panicked, want.panicMsg, got.panicked, got.panicMsg)
	}
	if want.cpu != got.cpu {
		t.Fatalf("%s: hart state diverged on %x:\nwant pc=%#x mcause=%#x mtval=%#x minstret=%d\ngot  pc=%#x mcause=%#x mtval=%#x minstret=%d",
			label, bs, want.cpu.PC, want.cpu.Mcause, want.cpu.Mtval, want.cpu.Minstret,
			got.cpu.PC, got.cpu.Mcause, got.cpu.Mtval, got.cpu.Minstret)
	}
	if want.halted != got.halted || want.insts != got.insts ||
		want.traps != got.traps || want.timedOut != got.timedOut {
		t.Fatalf("%s: termination diverged on %x: want (halted=%v n=%d traps=%d timeout=%v) got (halted=%v n=%d traps=%d timeout=%v)",
			label, bs, want.halted, want.insts, want.traps, want.timedOut,
			got.halted, got.insts, got.traps, got.timedOut)
	}
	if !bytes.Equal(want.mem, got.mem) {
		t.Fatalf("%s: memory diverged on %x", label, bs)
	}
	if !slices.Equal(want.trace.edges, got.trace.edges) {
		t.Fatalf("%s: coverage edges diverged on %x:\nwant %v\ngot  %v", label, bs, want.trace.edges, got.trace.edges)
	}
	if !slices.Equal(want.trace.events, got.trace.events) {
		t.Fatalf("%s: hook events diverged on %x", label, bs)
	}
}

func diffSeeds(f *testing.F) {
	add := func(sel uint8, words ...uint32) {
		var buf bytes.Buffer
		for _, w := range words {
			buf.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
		f.Add(sel, buf.Bytes())
	}
	f.Add(uint8(3), []byte(nil))
	// Straight-line ALU + halt.
	add(3,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 5}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}))
	// Self-modifying: overwrite the next instruction via x30.
	add(3,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 30, Rs1: 0, Imm: 12}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Rs2: 1, Imm: 0}),
		0xffffffff,
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}))
	// Compressed stream with a reserved encoding (quirk-sensitive).
	f.Add(uint8(2+1*4), []byte{0x01, 0x00, 0x02, 0x40, 0x01, 0x00})
	// Decoder crash patterns: 16-bit (h&0xe403==0x8400) and 32-bit.
	f.Add(uint8(3+1*4), []byte{0x00, 0x84})
	add(3+2*4, 0x0000405b)
	// Illegal 32-bit encoding, then FP and M-extension ops (legality
	// ladder differs per configuration).
	add(0, 0xffffffff)
	add(1, enc(isa.Inst{Op: isa.OpMUL, Rd: 3, Rs1: 1, Rs2: 2}))
	add(3,
		enc(isa.Inst{Op: isa.OpFLW, Rd: 1, Rs1: 0, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpFADDS, Rd: 2, Rs1: 1, Rs2: 1}))
	// Backward branch loop (exhausts the step budget identically).
	add(3, enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0}))
	// Overlapping streams: branch into the middle of a 32-bit encoding.
	add(2,
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 6}),
		0x8082ffff)
	// ECALL and EBREAK (trap paths + executor quirks).
	add(3+1*4, enc(isa.Inst{Op: isa.OpECALL}), enc(isa.Inst{Op: isa.OpEBREAK}))
	// CSR traffic.
	add(3, enc(isa.Inst{Op: isa.OpCSRRS, Rd: 1, CSR: 0x300}))
}

func FuzzExecPredecodeDifferential(f *testing.F) {
	diffSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, bs []byte) {
		cfg := fuzzCfgs[int(sel)&3]
		q := fuzzQuirks[(int(sel)>>2)%len(fuzzQuirks)]
		var xq Quirks
		if sel&0x20 != 0 {
			xq = Quirks{LinkBeforeAlignCheck: true, SCIgnoresReservation: true, EcallMarksCompletion: true}
		}
		slow := runDiff(bs, cfg, q, xq, false, false)
		fast := runDiff(bs, cfg, q, xq, true, false)
		compareDiff(t, "predecode Step", bs, slow, fast)
		if fast.stats.Hits+fast.stats.Misses != fast.insts {
			t.Fatalf("cache stats %+v do not account for %d executed instructions on %x",
				fast.stats, fast.insts, bs)
		}
		compareDiff(t, "classical Run", bs, slow, runDiff(bs, cfg, q, xq, false, true))
		fastRun := runDiff(bs, cfg, q, xq, true, true)
		compareDiff(t, "predecode Run", bs, slow, fastRun)
		if fastRun.stats != fast.stats {
			t.Fatalf("cache stats diverged between Run and Step on %x: %+v vs %+v", bs, fastRun.stats, fast.stats)
		}
	})
}

// FuzzExecBatchDifferential runs a batch of overlapping inputs back to
// back through one predecoded executor setup, the way the simulators
// reuse theirs: the decode cache is built once from the pristine image
// and cloned, and before each input the memory is restored to its
// snapshot, the cache is Reset and the injected bytes are invalidated.
// Every input must behave exactly like a solo classical Run on a fresh
// image, so a slot left stale by an earlier input's stores or refills
// shows up as a divergence.
func FuzzExecBatchDifferential(f *testing.F) {
	diffSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, bs []byte) {
		cfg := fuzzCfgs[int(sel)&3]
		q := fuzzQuirks[(int(sel)>>2)%len(fuzzQuirks)]
		var xq Quirks
		if sel&0x20 != 0 {
			xq = Quirks{LinkBeforeAlignCheck: true, SCIgnoresReservation: true, EcallMarksCompletion: true}
		}
		if len(bs) > 0x600 {
			bs = bs[:0x600]
		}
		// The full stream, a truncation and a shifted suffix (distinct
		// decode phases), then the full stream again over whatever the
		// shorter inputs left behind.
		inputs := [][]byte{bs, bs[:(len(bs)/3)*2], bs[len(bs)/3:], bs}

		m := mem.New(0, 0x8000)
		if err := m.Write32(testHandler, enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr})); err != nil {
			t.Fatal(err)
		}
		m.Snapshot()
		dec := &isa.Decoder{Quirks: q}
		code, err := m.ReadBytes(0, fuzzCodeSpan)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewDecodeCache(dec.Predecode(0, code), cfg).Clone()

		for i, in := range inputs {
			m.Restore()
			if err := m.LoadImage(0, in); err != nil {
				t.Fatal(err)
			}
			cache.Reset()
			if n := uint32(len(in)+3) &^ 3; n > 0 {
				cache.InvalidateRange(0, n)
			}
			before := cache.Stats()

			cpu := hart.New(cfg)
			cpu.Mtvec = testHandler
			e := New(cpu, m, dec)
			e.HaltAddr = testHaltAddr
			e.Quirks = xq
			e.Cache = cache
			tr := &diffTrace{}
			e.Hook = tr
			got := diffResult{trace: tr}
			func() {
				defer func() {
					if r := recover(); r != nil {
						got.panicked = true
						got.panicMsg = fmt.Sprint(r)
					}
				}()
				got.timedOut = e.Run(diffLimit) == ErrTimeout
			}()
			got.cpu = *cpu
			got.halted = e.Halted
			got.insts = e.InstCount
			got.traps = e.TrapCount
			got.mem, _ = m.ReadBytes(0, 0x8000)

			want := runDiff(in, cfg, q, xq, false, true)
			compareDiff(t, fmt.Sprintf("batch[%d]", i), in, want, got)
			after := cache.Stats()
			if d := (after.Hits - before.Hits) + (after.Misses - before.Misses); d != got.insts {
				t.Fatalf("batch[%d]: cache stats moved by %d for %d executed instructions on %x",
					i, d, got.insts, in)
			}
		}
	})
}
