package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/fault"
)

// TestE14FaultySweepDeterministic: the reliability experiment — every variant
// injecting faults and relocating around retired blocks — produces
// bit-identical rows under the sequential and the parallel runner, with the
// snapshot cache on and off. This is the test the CI race step runs with -race:
// fault injection sits on the controller's hot path, so any shared mutable
// state between concurrently sweeping variants would surface here.
func TestE14FaultySweepDeterministic(t *testing.T) {
	def := mustLookup(t, Small, "E14")
	want, err := New(Options{Workers: 1}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 4, NoPrepareCache: true},
	} {
		got, err := New(opts).Run(context.Background(), def)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opts %+v: faulty sweep results differ from the sequential reference", opts)
		}
	}

	// The sweep must actually exercise the degradation paths: the fault-free
	// baseline reports zero reliability activity, the faulted variants
	// report injections and a shrunken effective over-provisioning.
	base := want.Rows[0].Report
	if base.Retries+base.Relocations+base.EraseFailures+base.GrownBadBlocks != 0 {
		t.Fatalf("fault=none variant reports reliability activity: %+v", base)
	}
	for _, row := range want.Rows[1:] {
		r := row.Report
		if r.Retries == 0 || r.GrownBadBlocks == 0 {
			t.Fatalf("variant %q reports no injections (retries=%d grown=%d)", row.Label, r.Retries, r.GrownBadBlocks)
		}
		if r.EffectiveOP >= base.EffectiveOP {
			t.Fatalf("variant %q effective OP %.3f did not shrink from baseline %.3f",
				row.Label, r.EffectiveOP, base.EffectiveOP)
		}
	}
}

// TestWornOutDeviceSurfacesTypedError: a fault rate brutal enough to exhaust
// the free pool must end the run with the controller's typed ErrDeviceWornOut
// — never a hang and never only the generic workload-deadlock message.
func TestWornOutDeviceSurfacesTypedError(t *testing.T) {
	def := mustLookup(t, Small, "E14")
	def.Variants = []Variant{{
		Label: "wornout",
		Mutate: func(c *core.Config) {
			// 2% of erases fail and every program failure grows the block bad:
			// retirement outruns the over-provisioning slack within the sweep.
			c.Controller.Fault = fault.NewRandom(0.002, 0.02, 1, 11)
		},
	}}
	_, err := New(Options{Workers: 1}).Run(context.Background(), def)
	if err == nil {
		t.Fatal("worn-out run returned no error")
	}
	if !errors.Is(err, controller.ErrDeviceWornOut) {
		t.Fatalf("err = %v, want to wrap controller.ErrDeviceWornOut", err)
	}
}
