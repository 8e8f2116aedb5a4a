package workload

import (
	"fmt"
	"sort"
)

// Experiment binds an experiment id to its driver.
type Experiment struct {
	ID          string
	Description string
	Run         func(l *Lab) *Report
}

// Experiments is the registry of every table/figure driver, keyed by the
// paper artifact id (see DESIGN.md's per-experiment index).
var Experiments = []Experiment{
	{"tab3", "Table 3: dataset descriptions", (*Lab).Tab3},
	{"tab4", "Table 4: real-world query descriptions", (*Lab).Tab4},
	{"fig4a", "Fig 4a: chunk splits vs erasure block size", (*Lab).Fig4a},
	{"fig4b", "Fig 4b: baseline latency breakdown", (*Lab).Fig4b},
	{"fig4c", "Fig 4c: chunk size CDFs", (*Lab).Fig4c},
	{"fig4d", "Fig 4d: padding approach storage overhead", (*Lab).Fig4d},
	{"fig6", "Fig 6: lineitem per-column compression ratios", (*Lab).Fig6},
	{"fig10a", "Fig 10a: exact ILP solver runtime", (*Lab).Fig10a},
	{"fig10b", "Fig 10b: pushdown trade-off heatmap", (*Lab).Fig10b},
	{"fig12", "Fig 12: baseline per-chunk node span", (*Lab).Fig12},
	{"fig13", "Fig 13a/b: per-column latency reduction", (*Lab).Fig13},
	{"fig13cd", "Fig 13c/d: latency breakdowns, columns 5 and 9", (*Lab).Fig13cd},
	{"fig14ab", "Fig 14a/b: selectivity sweep", (*Lab).Fig14ab},
	{"fig14c", "Fig 14c: network bandwidth sweep", (*Lab).Fig14c},
	{"fig14d", "Fig 14d: CPU utilization", (*Lab).Fig14d},
	{"fig15a", "Fig 15a: real-query latency reduction", (*Lab).Fig15a},
	{"fig15b", "Fig 15b: real-query network traffic", (*Lab).Fig15b},
	{"fig16a", "Fig 16a: FAC overhead vs chunk count", (*Lab).Fig16a},
	{"fig16b", "Fig 16b: oracle/padding/FAC overhead", (*Lab).Fig16b},
	{"fig16c", "Fig 16c: layout runtime overhead", (*Lab).Fig16c},
	{"headline", "headline numbers (§1/§8)", (*Lab).Headline},
	{"abl-leastloaded", "ablation: bin-choice rule", (*Lab).AblLeastLoaded},
	{"abl-sortdesc", "ablation: descending sort", (*Lab).AblSortDesc},
	{"abl-costmodel", "ablation: pushdown policy", (*Lab).AblCostModel},
	{"abl-budget", "ablation: storage budget sweep", (*Lab).AblBudget},
	{"abl-rs1410", "FAC overhead under RS(14,10)", (*Lab).AblRS1410},
	{"groupby", "extension: GROUP BY / ORDER BY+LIMIT pushdown", (*Lab).GroupBy},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("workload: unknown experiment %q (known: %v)", id, ids)
}
