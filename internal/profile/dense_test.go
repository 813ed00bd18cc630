package profile_test

import (
	"reflect"
	"testing"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/workload"
)

// keyedCollect is a reference profiler written the direct way: every event
// updates maps keyed by (function, block), (function, edge) and (function,
// op), and each site meters the whole zoo.
func keyedCollect(t *testing.T, prog *ir.Program) *profile.Profile {
	t.Helper()
	m := interp.New(prog)
	prof := &profile.Profile{
		Loads:     map[profile.LoadKey]*profile.LoadProfile{},
		BlockFreq: map[profile.BlockKey]int64{},
		EdgeFreq:  map[profile.EdgeKey]int64{},
	}
	meters := map[profile.LoadKey][]*predict.RateMeter{}
	prevBlock := map[int]profile.BlockKey{}
	m.Hooks.OnBlock = func(f *ir.Func, b *ir.Block, depth int) {
		prof.BlockFreq[profile.BlockKey{Func: f.Name, Block: b.ID}]++
		if prev, ok := prevBlock[depth]; ok && prev.Func == f.Name {
			for _, s := range f.Blocks[prev.Block].Succs {
				if s == b.ID {
					prof.EdgeFreq[profile.EdgeKey{Func: f.Name, From: prev.Block, To: b.ID}]++
					break
				}
			}
		}
		prevBlock[depth] = profile.BlockKey{Func: f.Name, Block: b.ID}
	}
	m.Hooks.OnLoad = func(f *ir.Func, op *ir.Op, _ int, value uint64, _ int) {
		k := profile.LoadKey{Func: f.Name, OpID: op.ID}
		ms := meters[k]
		if ms == nil {
			ms = []*predict.RateMeter{
				{P: predict.NewStride()},
				{P: predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)},
				{P: predict.NewLastValue()},
				{P: predict.NewLastN(predict.DefaultLNVDepth)},
				{P: predict.NewVTAGE(predict.DefaultVTAGEBits).Site(0)},
				{P: predict.NewHybrid(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)},
			}
			meters[k] = ms
		}
		for _, rm := range ms {
			rm.Observe(value)
		}
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	for k, ms := range meters {
		prof.Loads[k] = &profile.LoadProfile{
			Key: k, Count: int64(ms[0].Total),
			StrideRate: ms[0].Rate(), FCMRate: ms[1].Rate(), LastRate: ms[2].Rate(),
			LNVRate: ms[3].Rate(), VTAGERate: ms[4].Rate(), HybridRate: ms[5].Rate(),
		}
	}
	prof.DynOps = m.Steps
	return prof
}

// TestDenseCountsMatchKeyedReference pins the dense, op-ID-indexed
// collector against the keyed reference on the stock kernels and 50
// generated ones (calls, recursion and multi-function programs included):
// the whole-zoo profile must be equal in every field, and the
// frequency-only profile equal in its frequencies with no load sites.
func TestDenseCountsMatchKeyedReference(t *testing.T) {
	kernels := append(workload.All(), workload.Generated(1, 50)...)
	if testing.Short() {
		kernels = append(workload.All()[:2], workload.Generated(1, 10)...)
	}
	for _, w := range kernels {
		prog, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want := keyedCollect(t, prog)
		got, err := profile.Collect(prog, "main")
		if err != nil {
			t.Fatal(err)
		}
		if got.Meters != profile.ZooMeters {
			t.Errorf("%s: Collect records meters %v, want the zoo", w.Name, got.Meters)
		}
		want.Meters = got.Meters
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dense profile differs from the keyed reference", w.Name)
		}
		freq, err := profile.CollectMeters(prog, profile.NoMeters, "main")
		if err != nil {
			t.Fatal(err)
		}
		if len(freq.Loads) != 0 || freq.DynOps != want.DynOps ||
			!reflect.DeepEqual(freq.BlockFreq, want.BlockFreq) || !reflect.DeepEqual(freq.EdgeFreq, want.EdgeFreq) {
			t.Fatalf("%s: frequency-only profile differs from the keyed reference (%d loads)", w.Name, len(freq.Loads))
		}
	}
}

// TestMetersSetAlgebra pins the metered-set vocabulary the profile pass
// fingerprints and the speculation guard read.
func TestMetersSetAlgebra(t *testing.T) {
	paper := profile.MetersOf(profile.SchemeStride, profile.SchemeFCM)
	for _, c := range []struct {
		spec string
		want profile.Meters
		name string
	}{
		{"profiled", paper, "stride+fcm"},
		{"fcm:conf=2", paper, "stride+fcm"},
		{"auto", profile.ZooMeters, "zoo"},
		{"stride", profile.MetersOf(profile.SchemeStride), "stride"},
		{"vtage:bits=8", profile.MetersOf(profile.SchemeStride, profile.SchemeVTAGE), "stride+vtage"},
		{"hybrid", profile.MetersOf(profile.SchemeStride, profile.SchemeHybrid), "stride+hybrid"},
	} {
		cfg, err := predict.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := profile.MetersFor(cfg); got != c.want || got.String() != c.name {
			t.Errorf("MetersFor(%s) = %v (%#x), want %s", c.spec, got, uint8(got), c.name)
		}
	}
	if profile.MetersFor(nil) != paper {
		t.Error("the nil predictor config must meter the paper's pair")
	}
	var zero profile.Meters
	if zero.String() != "zoo" || !zero.Covers(profile.ZooMeters) || !profile.ZooMeters.Covers(zero) {
		t.Error("the zero set must stand for the whole zoo")
	}
	if profile.NoMeters.String() != "none" || profile.NoMeters.Has(profile.SchemeStride) ||
		profile.NoMeters.Covers(paper) || !paper.Covers(profile.NoMeters) {
		t.Error("NoMeters must meter nothing and be covered by everything")
	}
	if paper.Covers(profile.ZooMeters) || !profile.ZooMeters.Covers(paper) {
		t.Error("Covers must order the paper's pair below the zoo")
	}
}
