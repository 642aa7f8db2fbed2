package exec

import (
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// countHook is a Hook that only counts, so any allocation measured with
// it attached belongs to the executor.
type countHook struct{ insts, edges uint64 }

func (h *countHook) OnInst(*isa.Inst, *hart.Hart) { h.insts++ }
func (h *countHook) OnEdge(uint32)                { h.edges++ }

// TestRunAllocFree pins the executor's hot path at zero heap allocations
// per run on both dispatch paths, with and without a hook: the record a
// hook or handler sees is the executor's scratch copy, not a per-step
// heap copy.
func TestRunAllocFree(t *testing.T) {
	modes := []struct {
		name string
		pre  bool
	}{
		{"direct", false},
		{"predecode", true},
	}
	for _, m := range modes {
		for _, hooked := range []bool{false, true} {
			name := m.name
			if hooked {
				name += "/hooked"
			}
			t.Run(name, func(t *testing.T) {
				e := newRunExec(m.pre)
				hook := &countHook{}
				if hooked {
					e.Hook = hook
				}
				if got := testing.AllocsPerRun(20, func() { rerun(t, e) }); got != 0 {
					t.Errorf("Executor.Run allocates %v times per run, want 0", got)
				}
				if hooked && (hook.insts == 0 || hook.edges == 0) {
					t.Errorf("hook not driven: %+v", *hook)
				}
			})
		}
	}
}
