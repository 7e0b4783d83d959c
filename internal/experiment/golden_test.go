package experiment

import (
	"strconv"
	"testing"
)

// Golden values recorded from the pre-runner, per-case serial execution
// (case 3, Generations 3, Rounds 30, Repetitions 3, seed 42). The shared
// work-stealing pool must reproduce them bit-for-bit: any drift means the
// seed derivation or config construction changed, not just scheduling.

func hexf(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden literal %q: %v", s, err)
	}
	return v
}

func checkSeries(t *testing.T, name string, got []float64, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		if got[i] != hexf(t, w) {
			t.Errorf("%s[%d] = %x, want %s", name, i, got[i], w)
		}
	}
}

func goldenScale() Scale {
	return Scale{Name: "golden", Generations: 3, Rounds: 30, Repetitions: 3}
}

func TestRunCaseGoldenBitIdentical(t *testing.T) {
	for _, par := range []int{1, 4} {
		res, err := runCase(3, goldenScale(), Options{Seed: 42, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		checkSeries(t, "CoopMean", res.CoopMean, []string{
			"0x1.087ff76ee65dep-03", "0x1.8a50e8f55edfbp-04", "0x1.92bca0b35192cp-05",
		})
		checkSeries(t, "CoopStd", res.CoopStd, []string{
			"0x1.c017d02708e8ap-07", "0x1.56113a351e5c4p-06", "0x1.bdab0ccba1bdcp-06",
		})
		checkSeries(t, "MeanEnvCoopMean", res.MeanEnvCoopMean, []string{
			"0x1.02f72106dd65p-03", "0x1.82a39a143a637p-04", "0x1.8b584466a17a6p-05",
		})
		if res.FinalCoop.N != 3 ||
			res.FinalCoop.Mean != hexf(t, "0x1.92bca0b35192cp-05") ||
			res.FinalCoop.StdDev != hexf(t, "0x1.bdab0ccba1bdcp-06") ||
			res.FinalCoop.Min != hexf(t, "0x1.67ce349b0167dp-06") ||
			res.FinalCoop.Max != hexf(t, "0x1.38c9138c9138dp-04") {
			t.Errorf("FinalCoop = %+v", res.FinalCoop)
		}
		if res.FinalMeanEnvCoop.Mean != hexf(t, "0x1.8b584466a17a5p-05") {
			t.Errorf("FinalMeanEnvCoop.Mean = %x", res.FinalMeanEnvCoop.Mean)
		}
		wantEnv := []struct{ coop, free string }{
			{"0x1.2975eb5684415p-04", "0x1p+00"},
			{"0x1.d4629b7f0d463p-05", "0x1.1e573ac901e57p-01"},
			{"0x1.2008e66329e54p-05", "0x1.b2ae82840864fp-03"},
			{"0x1.cc1372168c76dp-06", "0x1.30334daddf859p-03"},
		}
		for ei, w := range wantEnv {
			if res.PerEnv[ei].Cooperation.Mean != hexf(t, w.coop) {
				t.Errorf("PerEnv[%d].Cooperation.Mean = %x, want %s", ei, res.PerEnv[ei].Cooperation.Mean, w.coop)
			}
			if res.PerEnv[ei].CSNFree.Mean != hexf(t, w.free) {
				t.Errorf("PerEnv[%d].CSNFree.Mean = %x, want %s", ei, res.PerEnv[ei].CSNFree.Mean, w.free)
			}
		}
		if res.FromNormal.Accepted != 15213 || res.FromNormal.RejectedByNormal != 51216 ||
			res.FromNormal.RejectedBySelfish != 28797 {
			t.Errorf("FromNormal = %+v", res.FromNormal)
		}
		if res.FromCSN.Accepted != 3524 || res.FromCSN.RejectedByNormal != 25386 ||
			res.FromCSN.RejectedBySelfish != 29022 {
			t.Errorf("FromCSN = %+v", res.FromCSN)
		}
		if censusTotal(res.Census) != 300 {
			t.Errorf("census total %d", censusTotal(res.Census))
		}
		top := res.Census.Top(1)
		if len(top) != 1 || top[0].Strategy.Key() != "0000101001000" ||
			top[0].Fraction != hexf(t, "0x1.1111111111111p-06") {
			t.Errorf("top strategy = %+v", top)
		}
	}
}

func TestCSNSweepGoldenBitIdentical(t *testing.T) {
	// Golden values recorded from the pre-runner sweep, which barriered
	// between points; the flattened single-queue sweep must match exactly.
	for _, par := range []int{1, 8} {
		points, err := runScenarios(csnRuns(0, 10, 25), goldenScale(),
			Options{Seed: 7, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		want := []struct{ mean, std, min, max string }{
			{"0x1.374bc6a7ef9dbp-04", "0x1.6c99e5fe0c4a4p-07", "0x1.0cb295e9e1b09p-04", "0x1.675b1156f8c38p-04"},
			{"0x1.f3dd1baf98d77p-06", "0x1.b2a82c2885bb2p-08", "0x1.8e38e38e38e39p-06", "0x1.3333333333333p-05"},
			{"0x1.4540b39dffd93p-06", "0x1.83e02f919d3dp-09", "0x1.1bfd44f307826p-06", "0x1.7aa706995f588p-06"},
		}
		for i, w := range want {
			s := points[i].FinalCoop
			if s.N != 3 || s.Mean != hexf(t, w.mean) || s.StdDev != hexf(t, w.std) ||
				s.Min != hexf(t, w.min) || s.Max != hexf(t, w.max) {
				t.Errorf("parallelism %d point %d = %+v, want %+v", par, i, s, w)
			}
		}
	}
}
