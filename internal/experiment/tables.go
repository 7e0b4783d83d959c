package experiment

import (
	"fmt"

	"adhocga/internal/report"
	"adhocga/internal/strategy"
	"adhocga/internal/textplot"
)

// PaperReference holds the paper's published values so every generated
// table can print paper-vs-measured side by side.
var paperFig4Final = map[int]float64{1: 0.97, 2: 0.19, 3: 0.53, 4: 0.38}

// Paper Table 5 values (cases 3 and 4, per environment).
var paperTable5 = struct {
	coop3, coop4, free3, free4 [4]float64
}{
	coop3: [4]float64{0.99, 0.66, 0.28, 0.19},
	coop4: [4]float64{0.99, 0.41, 0.07, 0.05},
	free3: [4]float64{1.00, 0.66, 0.29, 0.20},
	free4: [4]float64{1.00, 0.41, 0.12, 0.08},
}

// Fig4Table renders the Fig 4 endpoints: the evolved cooperation level per
// evaluation case, paper versus measured. Missing cases are skipped.
func Fig4Table(results map[int]*CaseResult) *report.Table {
	t := report.NewTable("Figure 4 — evolved cooperation level (final generation)",
		"case", "paper", "measured", "±std", "scale")
	for id := 1; id <= 4; id++ {
		res, ok := results[id]
		if !ok {
			continue
		}
		// For multi-environment cases the paper's number is the unweighted
		// environment mean (see DESIGN.md on the swapped prose).
		measured := res.FinalCoop
		if len(res.Case.Environments) > 1 {
			measured = res.FinalMeanEnvCoop
		}
		t.AddRow(
			fmt.Sprintf("case %d", id),
			report.Percent(paperFig4Final[id]),
			report.Percent(measured.Mean),
			report.Percent(measured.StdDev),
			res.Scale.Name,
		)
	}
	return t
}

// Fig4Chart renders the cooperation-vs-generation curves as an ASCII chart.
func Fig4Chart(results map[int]*CaseResult) string {
	chart := textplot.Chart{
		Title:  "Figure 4 — evolution of cooperation (mean over repetitions)",
		YMin:   0,
		YMax:   1,
		FixedY: true,
		Width:  72,
		Height: 18,
	}
	for id := 1; id <= 4; id++ {
		res, ok := results[id]
		if !ok {
			continue
		}
		series := res.CoopMean
		if len(res.Case.Environments) > 1 {
			series = res.MeanEnvCoopMean
		}
		chart.AddSeries(fmt.Sprintf("case %d (final %.0f%%)", id, series[len(series)-1]*100), series)
	}
	return chart.Render()
}

// Table5 renders the per-environment cooperation levels and CSN-free path
// fractions for cases 3 and 4, paper versus measured.
func Table5(case3, case4 *CaseResult) *report.Table {
	t := report.NewTable("Table 5 — cooperation level and CSN-free paths per environment (cases 3 and 4)",
		"env",
		"coop c3 paper", "coop c3", "coop c4 paper", "coop c4",
		"free c3 paper", "free c3", "free c4 paper", "free c4")
	for ei := 0; ei < 4; ei++ {
		row := []string{fmt.Sprintf("TE%d", ei+1)}
		row = append(row, report.Percent(paperTable5.coop3[ei]))
		row = append(row, cellEnvCoop(case3, ei))
		row = append(row, report.Percent(paperTable5.coop4[ei]))
		row = append(row, cellEnvCoop(case4, ei))
		row = append(row, report.Percent(paperTable5.free3[ei]))
		row = append(row, cellEnvFree(case3, ei))
		row = append(row, report.Percent(paperTable5.free4[ei]))
		row = append(row, cellEnvFree(case4, ei))
		t.AddRow(row...)
	}
	return t
}

func cellEnvCoop(res *CaseResult, ei int) string {
	if res == nil || ei >= len(res.PerEnv) {
		return "-"
	}
	return report.Percent(res.PerEnv[ei].Cooperation.Mean)
}

func cellEnvFree(res *CaseResult, ei int) string {
	if res == nil || ei >= len(res.PerEnv) {
		return "-"
	}
	return report.Percent(res.PerEnv[ei].CSNFree.Mean)
}

// Paper Table 6 values.
var paperTable6 = struct {
	normal3, normal4, csn3, csn4 [3]float64 // accepted, rejected by NP, rejected by CSN
}{
	normal3: [3]float64{0.77, 0.0023, 0.22},
	normal4: [3]float64{0.78, 0.035, 0.18},
	csn3:    [3]float64{0.04, 0.53, 0.43},
	csn4:    [3]float64{0.03, 0.49, 0.47},
}

// Table6 renders the response to packet forwarding requests for cases 3
// and 4, split by the type of the requesting node.
func Table6(case3, case4 *CaseResult) *report.Table {
	t := report.NewTable("Table 6 — response to forwarding requests (final generation)",
		"response", "from NP c3 paper", "from NP c3", "from NP c4 paper", "from NP c4",
		"from CSN c3 paper", "from CSN c3", "from CSN c4 paper", "from CSN c4")
	labels := []string{"accepted", "rejected by NP", "rejected by CSN"}
	var n3, n4, c3, c4 [3]float64
	if case3 != nil {
		n3[0], n3[1], n3[2] = case3.FromNormal.Fractions()
		c3[0], c3[1], c3[2] = case3.FromCSN.Fractions()
	}
	if case4 != nil {
		n4[0], n4[1], n4[2] = case4.FromNormal.Fractions()
		c4[0], c4[1], c4[2] = case4.FromCSN.Fractions()
	}
	for i, label := range labels {
		t.AddRow(label,
			report.Percent(paperTable6.normal3[i]), report.Percent(n3[i]),
			report.Percent(paperTable6.normal4[i]), report.Percent(n4[i]),
			report.Percent(paperTable6.csn3[i]), report.Percent(c3[i]),
			report.Percent(paperTable6.csn4[i]), report.Percent(c4[i]))
	}
	return t
}

// Table7 renders the five most popular evolved strategies for cases 3
// and 4 (the paper's Table 7).
func Table7(case3, case4 *CaseResult) *report.Table {
	t := report.NewTable("Table 7 — most popular evolved strategies",
		"rank", "case 3 (SP)", "freq", "case 4 (LP)", "freq")
	var top3, top4 []strategy.Entry
	if case3 != nil {
		top3 = case3.Census.Top(5)
	}
	if case4 != nil {
		top4 = case4.Census.Top(5)
	}
	for i := 0; i < 5; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		if i < len(top3) {
			row = append(row, top3[i].Strategy.String(), report.Percent(top3[i].Fraction))
		} else {
			row = append(row, "-", "-")
		}
		if i < len(top4) {
			row = append(row, top4[i].Strategy.String(), report.Percent(top4[i].Fraction))
		} else {
			row = append(row, "-", "-")
		}
		t.AddRow(row...)
	}
	return t
}

// SubStrategyTable renders a Table 8/9-style sub-strategy distribution for
// one case: the 3-bit pattern per trust level with its frequency, filtered
// at the paper's 3% threshold.
func SubStrategyTable(title string, res *CaseResult) *report.Table {
	t := report.NewTable(title, "trust 0", "trust 1", "trust 2", "trust 3")
	if res == nil {
		return t
	}
	const minFraction = 0.03
	var cols [strategy.NumTrustLevels][]strategy.SubEntry
	maxRows := 0
	for tl := 0; tl < strategy.NumTrustLevels; tl++ {
		cols[tl] = res.Census.SubStrategies(strategy.TrustLevel(tl), minFraction)
		if len(cols[tl]) > maxRows {
			maxRows = len(cols[tl])
		}
	}
	for r := 0; r < maxRows; r++ {
		row := make([]string, strategy.NumTrustLevels)
		for tl := 0; tl < strategy.NumTrustLevels; tl++ {
			if r < len(cols[tl]) {
				e := cols[tl][r]
				row[tl] = fmt.Sprintf("%s (%s)", e.Pattern, report.Percent(e.Fraction))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Table8 renders the case-3 sub-strategy distribution (short paths).
func Table8(case3 *CaseResult) *report.Table {
	return SubStrategyTable("Table 8 — evolved sub-strategies, case 3 (short paths)", case3)
}

// Table9 renders the case-4 sub-strategy distribution (long paths).
func Table9(case4 *CaseResult) *report.Table {
	return SubStrategyTable("Table 9 — evolved sub-strategies, case 4 (long paths)", case4)
}
