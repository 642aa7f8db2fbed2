package exec

import (
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// attachCache predecodes the executor's low memory (the test code window)
// and attaches the resulting cache. Call after all memory pokes so the
// predecode sees the final image, like sim.New does.
func attachCache(e *Executor, cfg isa.Config) *DecodeCache {
	code, err := e.Mem.ReadBytes(0, fuzzCodeSpan)
	if err != nil {
		panic(err)
	}
	e.Cache = NewDecodeCache(e.Dec.Predecode(0, code), cfg)
	return e.Cache
}

// runCompare executes the same program with and without the decode cache
// and fails on any divergence in hart state or termination. It returns
// the cached executor for stats assertions.
func runCompare(t *testing.T, cfg isa.Config, steps int, poke func(m *mem.Memory), words ...uint32) *Executor {
	t.Helper()
	mk := func(pre bool) *Executor {
		e := newExec(cfg, words...)
		if poke != nil {
			poke(e.Mem)
		}
		if pre {
			attachCache(e, cfg)
		}
		for i := 0; i < steps && !e.Halted; i++ {
			e.Step()
		}
		return e
	}
	slow, fast := mk(false), mk(true)
	if *slow.CPU != *fast.CPU {
		t.Fatalf("hart state diverged:\nslow pc=%#x mcause=%#x x5=%d\nfast pc=%#x mcause=%#x x5=%d",
			slow.CPU.PC, slow.CPU.Mcause, slow.CPU.ReadX(5),
			fast.CPU.PC, fast.CPU.Mcause, fast.CPU.ReadX(5))
	}
	if slow.Halted != fast.Halted || slow.InstCount != fast.InstCount {
		t.Fatalf("termination diverged: slow (halted=%v, n=%d) fast (halted=%v, n=%d)",
			slow.Halted, slow.InstCount, fast.Halted, fast.InstCount)
	}
	return fast
}

// TestSelfModifyingStoreInvalidates is the headline self-modifying-stream
// regression: a wild store through x30 (and x31) overwrites a predecoded
// illegal slot with a live instruction, which must be invalidated,
// re-decoded on the next fetch and then executed.
func TestSelfModifyingStoreInvalidates(t *testing.T) {
	for _, base := range []isa.Reg{30, 31} {
		e := runCompare(t, isa.RV32I, 100,
			func(m *mem.Memory) {
				// The replacement instruction, fetched from the data area.
				if err := m.Write32(0x200, enc(isa.Inst{Op: isa.OpADDI, Rd: 2, Imm: 99})); err != nil {
					t.Fatal(err)
				}
			},
			enc(isa.Inst{Op: isa.OpADDI, Rd: base, Imm: 20}),
			enc(isa.Inst{Op: isa.OpLW, Rd: 1, Imm: 0x200}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: base, Rs2: 1}),
			enc(isa.Inst{Op: isa.OpADDI}), // nop
			enc(isa.Inst{Op: isa.OpADDI}), // nop
			0xffffffff,                    // at 20: overwritten before it is fetched
			enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
		)
		if got := e.CPU.ReadX(2); got != 99 {
			t.Errorf("base x%d: x2 = %d, want 99 (stale predecoded slot executed?)", base, got)
		}
		if !e.Halted {
			t.Errorf("base x%d: did not halt", base)
		}
		st := e.Cache.Stats()
		if st.Invalidations != 1 {
			t.Errorf("base x%d: invalidations = %d, want 1", base, st.Invalidations)
		}
		if st.Misses != 1 {
			t.Errorf("base x%d: misses = %d, want 1 (the re-decode of the patched slot)", base, st.Misses)
		}
		if st.Hits < 5 {
			t.Errorf("base x%d: hits = %d, want >= 5", base, st.Hits)
		}
	}
}

// TestSelfModifyingHalfwordStraddle patches only the upper halfword of a
// 32-bit instruction (a 16-bit store into the middle of a 4-byte slot):
// the invalidation must reach back to the instruction's start so the next
// fetch sees the stitched encoding.
func TestSelfModifyingHalfwordStraddle(t *testing.T) {
	want := enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 42})
	e := runCompare(t, isa.RV32I, 100,
		func(m *mem.Memory) {
			// Only the upper half of the target encoding (the I-type
			// immediate lives in the top bits).
			if err := m.Write32(0x200, want>>16); err != nil {
				t.Fatal(err)
			}
		},
		enc(isa.Inst{Op: isa.OpADDI, Rd: 30, Imm: 22}), // hi half of the inst at 20
		enc(isa.Inst{Op: isa.OpLW, Rd: 1, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpSH, Rs1: 30, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpADDI}),                // nop
		enc(isa.Inst{Op: isa.OpADDI}),                // nop
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 1}), // at 20: immediate patched to 42
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
	if got := e.CPU.ReadX(5); got != 42 {
		t.Errorf("x5 = %d, want 42 (straddling store missed the slot start)", got)
	}
	st := e.Cache.Stats()
	if st.Invalidations != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 invalidation and 1 miss", st)
	}
}

// TestSelfModifyingOverlappingStream patches a halfword in the middle of
// a 32-bit word and then branches into it, creating an overlapping
// instruction stream at a site the predecode lowered differently. The
// cached run must match the classical run exactly (per-halfword slots
// make overlapping streams fall out naturally).
func TestSelfModifyingOverlappingStream(t *testing.T) {
	runCompare(t, isa.RV32IMC, 200,
		func(m *mem.Memory) {
			// c.li x5, 9 — the halfword the store writes at address 18.
			if err := m.Write32(0x200, 0x42a5); err != nil {
				t.Fatal(err)
			}
		},
		enc(isa.Inst{Op: isa.OpADDI, Rd: 31, Imm: 18}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 1, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpSH, Rs1: 31, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpBEQ, Imm: 6}), // branch to 18: mid-word target
		0xffffffff,                           // at 16; halfword at 18 becomes c.li x5, 9
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
}

// TestDecodeCacheCloneIndependent checks the sim.Clone contract: clones
// share the immutable predecode but have private entry tables and stats,
// so one executor's self-modification never leaks into another.
func TestDecodeCacheCloneIndependent(t *testing.T) {
	e1 := newExec(isa.RV32I,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 30, Imm: 8}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Rs2: 30}), // clobber the inst at 8
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 7}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
	c1 := attachCache(e1, isa.RV32I)
	c2 := c1.Clone()
	if c2.pd != c1.pd {
		t.Fatal("clone does not share the pristine predecode")
	}
	for i := 0; i < 100 && !e1.Halted; i++ {
		e1.Step()
	}
	if c1.Stats().Invalidations == 0 {
		t.Fatal("self-modifying program caused no invalidation")
	}
	if st := c2.Stats(); st != (CacheStats{}) {
		t.Errorf("clone stats polluted: %+v", st)
	}
	// The clone's entry for the clobbered slot is still the pristine one.
	if c2.entries[8>>1].state == entryInvalid {
		t.Error("clone entry invalidated by the original's store")
	}
}

// TestDecodeCacheResetRestoresPristine mirrors the per-run maintenance in
// sim.RunHooked: after self-modification, Reset must roll every touched
// slot back to the pristine predecode.
func TestDecodeCacheResetRestoresPristine(t *testing.T) {
	e := newExec(isa.RV32I,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 30, Imm: 8}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Rs2: 30}),
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 7}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
	c := attachCache(e, isa.RV32I)
	pristine := c.entries[8>>1]
	// Step exactly through addi + sw: the next fetch would refill the
	// invalidated slot, hiding the state we want to observe.
	e.Step()
	e.Step()
	if c.entries[8>>1].state != entryInvalid {
		t.Fatal("store did not invalidate the slot")
	}
	c.Reset()
	got := c.entries[8>>1]
	got.dirty = pristine.dirty
	if got.state != pristine.state || got.inst != pristine.inst {
		t.Errorf("reset slot = %+v, want pristine %+v", got, pristine)
	}
	if len(c.touched) != 0 && c.touched != nil {
		// touched may keep capacity but must hold no pending slots.
		for _, s := range c.touched {
			if c.entries[s].dirty {
				t.Errorf("slot %d still dirty after Reset", s)
			}
		}
	}
}

// TestInvalidateRangeBounds exercises the clamping edges: a store at
// address 0 (the lo-2 underflow guard), stores outside the window, and
// stores overlapping the window end.
func TestInvalidateRangeBounds(t *testing.T) {
	d := isa.Ref
	code := make([]byte, 0x20)
	c := NewDecodeCache(d.Predecode(0, code), isa.RV32I)
	c.InvalidateRange(0, 4)
	if c.Stats().Invalidations != 1 {
		t.Errorf("store at 0: invalidations = %d, want 1", c.Stats().Invalidations)
	}
	c.InvalidateRange(0x1000, 4)
	if c.Stats().Invalidations != 1 {
		t.Errorf("out-of-range store counted: %d", c.Stats().Invalidations)
	}
	c.InvalidateRange(0x1e, 8) // tail overlap
	if c.Stats().Invalidations != 2 {
		t.Errorf("tail overlap not counted: %d", c.Stats().Invalidations)
	}
}

// TestInvalidateRangeImageBoundaries pins the write/invalidate overlap
// test at both image edges (the back-widening bug class): a store at or
// past the range end must not be widened backward into the last
// halfword, and a store at offset 0 must not underflow past the base.
// The cache here starts at a non-zero base so both edges are interior
// addresses.
func TestInvalidateRangeImageBoundaries(t *testing.T) {
	d := isa.Ref
	code := make([]byte, 0x20) // range [0x100, 0x120)
	c := NewDecodeCache(d.Predecode(0x100, code), isa.RV32I)

	// High edge: writes at the limit, just past it, and far past it are
	// no-ops — no slot knocked out, nothing counted. (The buggy
	// back-widening applied lo = addr-2 before the range test, so a
	// write at 0x120 or 0x121 wrongly invalidated slot 15.)
	for _, w := range []struct{ addr, size uint32 }{
		{0x120, 4}, {0x121, 1}, {0x122, 2}, {0x1000, 8}, {0xfffffffe, 4},
	} {
		c.InvalidateRange(w.addr, w.size)
	}
	if n := c.Stats().Invalidations; n != 0 {
		t.Fatalf("high-edge no-op writes counted %d invalidations", n)
	}
	if len(c.touched) != 0 {
		t.Fatalf("high-edge no-op writes dirtied %d slots", len(c.touched))
	}

	// Last halfword: a 2-byte write at limit-2 knocks out that slot and
	// (back-widening) its predecessor, and nothing else.
	c.InvalidateRange(0x11e, 2)
	if n := c.Stats().Invalidations; n != 1 {
		t.Fatalf("last-halfword write: invalidations = %d, want 1", n)
	}
	if len(c.touched) != 2 || c.entries[14].state != entryInvalid || c.entries[15].state != entryInvalid {
		t.Fatalf("last-halfword write touched %d slots (want 14 and 15)", len(c.touched))
	}
	c.Reset()

	// Low edge: a write at offset 0 clamps the back-widened start to the
	// base instead of underflowing, and hits slot 0 only.
	c.InvalidateRange(0x100, 1)
	if len(c.touched) != 1 || c.entries[0].state != entryInvalid {
		t.Fatalf("offset-0 write touched %d slots (want slot 0 only)", len(c.touched))
	}
	c.Reset()

	// A write ending exactly at the base does not reach slot 0...
	c.InvalidateRange(0xfc, 4)
	if len(c.touched) != 0 {
		t.Fatalf("write ending at base dirtied %d slots", len(c.touched))
	}
	// ...but one straddling the base does, and hits slot 0 only.
	c.InvalidateRange(0xfe, 4)
	if len(c.touched) != 1 || c.entries[0].state != entryInvalid {
		t.Fatalf("base-straddling write touched %d slots (want slot 0 only)", len(c.touched))
	}
}

// TestPredecodeCrashQuirkDeferred checks that a decoder with the
// CrashOnPattern quirk does not panic while predecoding (slots stay
// lazy); the panic must fire only when the pattern is actually fetched,
// exactly like the classical path.
func TestPredecodeCrashQuirkDeferred(t *testing.T) {
	e := newExec(isa.RV32IMC, 0x8400_8400) // both halfwords match the crash pattern
	e.Dec = &isa.Decoder{Quirks: isa.Quirks{CrashOnPattern: true}}
	attachCache(e, isa.RV32IMC) // must not panic
	defer func() {
		if recover() == nil {
			t.Error("fetching the crash pattern did not panic")
		}
	}()
	e.Step()
}

// TestCacheStatsSince: the delta between two readings of one lineage is
// the plain per-counter growth; a reading below the earlier one (the
// executor was rebuilt and its counters restarted) counts from zero
// instead of underflowing.
func TestCacheStatsSince(t *testing.T) {
	prev := CacheStats{Hits: 10, Misses: 4, Invalidations: 2}
	cur := CacheStats{Hits: 15, Misses: 4, Invalidations: 3}
	if got, want := cur.Since(prev), (CacheStats{Hits: 5, Invalidations: 1}); got != want {
		t.Errorf("growth = %+v, want %+v", got, want)
	}
	for _, restarted := range []CacheStats{
		{Hits: 3, Misses: 9, Invalidations: 9},
		{Hits: 99, Misses: 1, Invalidations: 9},
		{Hits: 99, Misses: 9, Invalidations: 1},
	} {
		if got := restarted.Since(prev); got != restarted {
			t.Errorf("%+v.Since(%+v) = %+v, want the reading itself", restarted, prev, got)
		}
	}
}
