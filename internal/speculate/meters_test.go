package speculate_test

import (
	"errors"
	"reflect"
	"testing"

	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/speculate"
	"vliwvp/internal/workload"
)

var allSchemes = []profile.Scheme{
	profile.SchemeStride, profile.SchemeFCM, profile.SchemeLast,
	profile.SchemeLNV, profile.SchemeVTAGE, profile.SchemeHybrid,
}

// TestTrimmedProfileMatchesZoo pins the metered-set trimming as invisible
// to its readers: for every stock predictor config, on the stock kernels
// and 50 generated ones, the profile metering only profile.MetersFor(cfg)
// equals the whole-zoo profile on counts, block and edge frequencies,
// dynamic ops and every rate the config reads — and the speculation pass
// selects the same sites, schemes and rates from either.
func TestTrimmedProfileMatchesZoo(t *testing.T) {
	kernels := append(workload.All(), workload.Generated(1, 50)...)
	if testing.Short() {
		kernels = append(workload.All()[:2], workload.Generated(1, 10)...)
	}
	trimmedAway := 0
	for _, w := range kernels {
		prog, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		zoo, err := profile.Collect(prog, "main")
		if err != nil {
			t.Fatal(err)
		}
		bySet := map[profile.Meters]*profile.Profile{}
		for _, name := range predict.StockNames() {
			cfg, err := predict.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			m := profile.MetersFor(cfg)
			p := bySet[m]
			if p == nil {
				if p, err = profile.CollectMeters(prog, m, "main"); err != nil {
					t.Fatal(err)
				}
				bySet[m] = p
			}
			tag := w.Name + "/" + name
			if p.Meters != m {
				t.Fatalf("%s: profile records meters %v, want %v", tag, p.Meters, m)
			}
			if p.DynOps != zoo.DynOps || !reflect.DeepEqual(p.BlockFreq, zoo.BlockFreq) ||
				!reflect.DeepEqual(p.EdgeFreq, zoo.EdgeFreq) || len(p.Loads) != len(zoo.Loads) {
				t.Fatalf("%s: frequencies differ from the zoo profile (%d/%d ops, %d/%d loads)",
					tag, p.DynOps, zoo.DynOps, len(p.Loads), len(zoo.Loads))
			}
			for k, z := range zoo.Loads {
				lp := p.Loads[k]
				if lp == nil || lp.Count != z.Count || lp.Key != z.Key {
					t.Fatalf("%s %v: load profile %+v, zoo %+v", tag, k, lp, z)
				}
				for _, s := range allSchemes {
					switch {
					case m.Has(s) && lp.RateOf(s) != z.RateOf(s):
						t.Fatalf("%s %v: %v rate %v, zoo %v", tag, k, s, lp.RateOf(s), z.RateOf(s))
					case !m.Has(s) && lp.RateOf(s) != 0:
						t.Fatalf("%s %v: unmetered %v rate %v", tag, k, s, lp.RateOf(s))
					case !m.Has(s) && z.RateOf(s) != 0:
						trimmedAway++
					}
				}
			}
			sc := speculate.DefaultConfig(machine.W4)
			sc.Predictor = cfg
			got, err := speculate.Transform(prog, p, sc)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want, err := speculate.Transform(prog, zoo, sc)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if len(got.Sites) != len(want.Sites) {
				t.Fatalf("%s: %d sites, zoo profile selects %d", tag, len(got.Sites), len(want.Sites))
			}
			for i, s := range got.Sites {
				if *s != *want.Sites[i] {
					t.Fatalf("%s: site %d = %+v, zoo profile gives %+v", tag, i, *s, *want.Sites[i])
				}
			}
		}
	}
	// Anti-vacuity: trimming must really have dropped non-zero rates.
	if trimmedAway == 0 {
		t.Fatal("no trimmed profile left out a non-zero rate")
	}
}

// TestTransformRefusesUnmeteredRates is the teeth check on the metered-set
// guard: a stride/FCM-only profile handed to an "auto" or forced-"vtage"
// config must fail with *UnmeteredError instead of selecting on the
// missing rates' zeros; a config the profile covers must pass.
func TestTransformRefusesUnmeteredRates(t *testing.T) {
	prog, err := workload.Compress.Compile()
	if err != nil {
		t.Fatal(err)
	}
	paper := profile.MetersOf(profile.SchemeStride, profile.SchemeFCM)
	prof, err := profile.CollectMeters(prog, paper, "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"auto", "vtage", "lnv:conf=2"} {
		cfg, err := predict.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := speculate.DefaultConfig(machine.W4)
		sc.Predictor = cfg
		_, err = speculate.Transform(prog, prof, sc)
		var ue *speculate.UnmeteredError
		if !errors.As(err, &ue) {
			t.Fatalf("%s on a %v profile: err = %v, want *UnmeteredError", name, paper, err)
		}
		if ue.Have != paper || ue.Need != profile.MetersFor(cfg) {
			t.Errorf("%s: error names need %v / have %v", name, ue.Need, ue.Have)
		}
	}
	for _, name := range []string{"profiled", "stride", "fcm:conf=1"} {
		cfg, err := predict.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := speculate.DefaultConfig(machine.W4)
		sc.Predictor = cfg
		res, err := speculate.Transform(prog, prof, sc)
		if err != nil {
			t.Fatalf("%s on a %v profile: %v", name, paper, err)
		}
		if len(res.Sites) == 0 {
			t.Errorf("%s: no sites selected on compress", name)
		}
	}
}
