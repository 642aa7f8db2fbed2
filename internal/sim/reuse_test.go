package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// reuseCases is a case mix whose state would leak into the next run if
// the simulator's executor were not reset in place: a decoder crash
// recovered inside RunHooked (sail-riscv), an instruction-limit timeout,
// FP-state and CSR writes, counter reads, and traps (which the trap
// family records together with mstatus).
func reuseCases() [][]byte {
	csrr := func(rd isa.Reg, csr uint16) uint32 {
		return enc(isa.Inst{Op: isa.OpCSRRS, Rd: rd, CSR: csr})
	}
	return [][]byte{
		stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})),
		{0x00, 0x84, 0, 0},                                  // sail decoder-crash pattern (compressed)
		stream(0x0000505b),                                  // sail decoder-crash pattern (32-bit)
		stream(csrr(5, hart.CSRMcycle)),                     // reads a counter a stale hart would carry over
		stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0})), // self-loop: timeout
		stream(csrr(5, hart.CSRMcycle)),
		stream(
			enc(isa.Inst{Op: isa.OpFMVWX, Rd: 1, Rs1: 3}), // dirties mstatus.FS
			0x00000073, // ECALL: the trap family records mstatus
		),
		stream(0x00000073),
		stream(enc(isa.Inst{Op: isa.OpCSRRW, Rs1: 3, CSR: hart.CSRMscratch})),
		stream(csrr(6, hart.CSRMscratch), 0xffffffff),
		stream(0xffffffff),
		{},
	}
}

// TestExecutorReuseInvisible: a simulator reuses one executor across
// runs, and no run may observe its predecessor. Every outcome of a mixed
// sequence through one simulator (plain and hooked runs alternating)
// must equal a fresh simulator's outcome for the same case, for every
// variant, configuration and suite family, and for a layout whose entry
// point is not the hart's reset PC.
func TestExecutorReuseInvisible(t *testing.T) {
	cases := reuseCases()
	shifted := template.DefaultLayout
	shifted.TextBase = 0x400
	for _, v := range All {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC} {
			if !v.Supports(cfg) {
				continue
			}
			platforms := []template.Platform{
				template.PlatformFor(template.FamilyUser, cfg),
				template.PlatformFor(template.FamilyTrap, cfg),
				{Layout: shifted, Cfg: cfg},
			}
			for k, p := range platforms {
				label := fmt.Sprintf("%s/%v/%v/platform %d", v.Name, cfg, p.Family, k)
				s, err := New(v, p)
				if err != nil {
					t.Fatal(err)
				}
				col := coverage.NewCollector(coverage.V3())
				var crashed, timedOut bool
				for round := 0; round < 2; round++ {
					for i, bs := range cases {
						fresh, err := New(v, p)
						if err != nil {
							t.Fatal(err)
						}
						want := fresh.Run(bs)
						var got Outcome
						if (i+round)%2 == 0 {
							got = s.RunHooked(bs, col)
							col.Map.MergeNew()
						} else {
							got = s.Run(bs)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s round %d case %d:\nreused %+v\nfresh  %+v", label, round, i, got, want)
						}
						crashed = crashed || got.Crashed
						timedOut = timedOut || got.TimedOut
					}
				}
				if !timedOut {
					t.Errorf("%s: the sequence never timed out", label)
				}
				if v == Sail && !crashed {
					t.Errorf("%s: the sequence never crashed the decoder", label)
				}
			}
		}
	}
}

// TestClonesShareNoExecutor runs two clones of one simulator
// concurrently on the same cases (run with -race): each clone builds its
// own executor, so neither run can disturb the other.
func TestClonesShareNoExecutor(t *testing.T) {
	base := newSim(t, Sail, isa.RV32IMC)
	base.Run(stream(0xffffffff)) // the base's own executor exists before cloning
	cases := reuseCases()
	want := make([]Outcome, len(cases))
	for i, bs := range cases {
		want[i] = newSim(t, Sail, isa.RV32IMC).Run(bs)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(s *Simulator) {
			defer wg.Done()
			col := coverage.NewCollector(coverage.V3())
			for round := 0; round < 3; round++ {
				for i, bs := range cases {
					if got := s.RunHooked(bs, col); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("case %d: %+v vs %+v", i, got, want[i])
						return
					}
				}
			}
		}(base.Clone())
	}
	wg.Wait()
}

// TestRunAllocs pins the steady-state simulator run at one heap
// allocation, the returned signature, for plain and coverage-hooked runs
// of both suite families.
func TestRunAllocs(t *testing.T) {
	bs := stream(
		enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Rs1: 1, Imm: 17}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
		0xffffffff,
	)
	for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
		s, err := New(Reference, template.PlatformFor(fam, isa.RV32IMC))
		if err != nil {
			t.Fatal(err)
		}
		col := coverage.NewCollector(coverage.V3())
		runs := []struct {
			name string
			run  func()
		}{
			{"Run", func() { s.Run(bs) }},
			{"RunHooked", func() {
				s.RunHooked(bs, col)
				col.Map.MergeNew()
			}},
		}
		for _, r := range runs {
			if got := testing.AllocsPerRun(50, r.run); got > 1 {
				t.Errorf("%s %s: %v allocations per run, want <= 1 (the signature)", fam, r.name, got)
			}
		}
	}
}
