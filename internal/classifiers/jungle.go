package classifiers

import (
	"math"
	"slices"
	"sort"

	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "jungle",
		Label:  "DJ",
		Linear: false,
		Params: []ParamSpec{
			{Name: "n_dags", Kind: Numeric, Default: 8, Min: 1, Max: 40, IsInt: true},
			{Name: "max_depth", Kind: Numeric, Default: 8, Min: 1, Max: 32, IsInt: true},
			{Name: "max_width", Kind: Numeric, Default: 16, Min: 2, Max: 256, IsInt: true},
			{Name: "opt_steps", Kind: Numeric, Default: 2, Min: 1, Max: 32, IsInt: true},
		},
	}, func(p Params) Classifier { return &DecisionJungle{params: p} })
}

// DecisionJungle implements decision jungles (Shotton et al. 2013) —
// Microsoft's memory-bounded alternative to forests: an ensemble of rooted
// decision DAGs whose per-level width is capped, forcing nodes to merge.
// Training grows each DAG level-by-level: nodes split greedily as in CART,
// then the level's children are merged down to max_width by repeatedly
// joining the pair of nodes whose union least increases impurity
// (opt_steps controls how many merge-refinement passes run per level).
type DecisionJungle struct {
	params Params
	dags   []*dagModel
}

type dagNode struct {
	feature   int // -1 for leaf
	threshold float64
	left      int // index into next level (or -1)
	right     int
	value     float64 // class-1 probability at this node
}

type dagModel struct {
	levels [][]dagNode
}

// Name implements Classifier.
func (*DecisionJungle) Name() string { return "jungle" }

// Fit implements Classifier.
func (j *DecisionJungle) Fit(x [][]float64, y []int, r *rng.RNG) error {
	n, _, err := validateFit(x, y)
	if err != nil {
		return err
	}
	nDags := j.params.Int("n_dags", 8)
	if nDags < 1 {
		nDags = 1
	}
	target := labelsToFloats(y)
	mem := &dagMem{}
	j.dags = make([]*dagModel, nDags)
	for t := 0; t < nDags; t++ {
		mem.boot = bootstrapIndices(mem.boot, n, r)
		j.dags[t] = j.growDAG(x, target, mem.boot, r, mem)
	}
	return nil
}

// dagMem is a jungle fit's reusable split storage, allocated once per Fit
// and shared by its DAGs: no DAG it grows references it. Of treeMem it uses
// boot (the DAG's bootstrap sample), cand (a node's candidate features) and
// thr (a feature's random thresholds).
type dagMem struct {
	treeMem
	below    []int // per bucket, the members in it (see split)
	posBelow []int // per bucket, the positive members in it
}

// growDAG builds one width-limited DAG over the (multi)set idx of rows.
func (j *DecisionJungle) growDAG(x [][]float64, target []float64, idx []int, r *rng.RNG, mem *dagMem) *dagModel {
	maxDepth := j.params.Int("max_depth", 8)
	maxWidth := j.params.Int("max_width", 16)
	optSteps := j.params.Int("opt_steps", 2)
	if maxWidth < 2 {
		maxWidth = 2
	}
	if optSteps < 1 {
		optSteps = 1
	}
	k := 4 * optSteps // random thresholds per candidate feature
	d := len(x[0])
	nFeat := treeConfig{maxFeatures: "sqrt"}.featureCount(d)
	mem.cand = sized(mem.cand, d)
	mem.thr = sized(mem.thr, k)
	mem.below = sized(mem.below, k+1)
	mem.posBelow = sized(mem.posBelow, k+1)

	dag := &dagModel{}
	// current holds, for each live node of the level, the sample indices
	// routed to it.
	current := [][]int{idx}
	for depth := 0; depth < maxDepth; depth++ {
		level := make([]dagNode, len(current))
		var nextGroups [][]int
		splitAny := false
		for ni, group := range current {
			node := dagNode{feature: -1, value: meanAt(target, group)}
			if len(group) >= 4 && !pureAt(target, group) {
				// Greedy split: evaluate sampled features/thresholds.
				pos := 0
				for _, i := range group {
					pos += int(target[i])
				}
				bestScore := math.Inf(1)
				for _, f := range r.SampleInto(mem.cand, d, nFeat) {
					thr, score, ok := mem.split(x, target, group, f, pos, k, r)
					if ok && score < bestScore {
						bestScore = score
						node.feature = f
						node.threshold = thr
					}
				}
			}
			if node.feature >= 0 {
				nL := 0
				for _, i := range group {
					if x[i][node.feature] <= node.threshold {
						nL++
					}
				}
				if nL == 0 || nL == len(group) {
					node.feature = -1
				} else {
					// Both children's groups in one allocation, left
					// members first, each in group order.
					children := make([]int, len(group))
					a, b := 0, nL
					for _, i := range group {
						if x[i][node.feature] <= node.threshold {
							children[a] = i
							a++
						} else {
							children[b] = i
							b++
						}
					}
					node.left = len(nextGroups)
					nextGroups = append(nextGroups, children[:nL:nL])
					node.right = len(nextGroups)
					nextGroups = append(nextGroups, children[nL:])
					splitAny = true
				}
			}
			if node.feature < 0 {
				node.left, node.right = -1, -1
			}
			level[ni] = node
		}
		dag.levels = append(dag.levels, level)
		if !splitAny {
			break
		}
		// Width limiting: merge most-similar child groups until ≤ maxWidth.
		for len(nextGroups) > maxWidth {
			a, b := mostSimilarPair(nextGroups, target)
			merged := append(append([]int(nil), nextGroups[a]...), nextGroups[b]...)
			// Remap child pointers: b → a, and shift everything past b.
			for ni := range level {
				remap := func(p int) int {
					switch {
					case p == b:
						return a
					case p > b:
						return p - 1
					default:
						return p
					}
				}
				if level[ni].feature >= 0 {
					level[ni].left = remap(level[ni].left)
					level[ni].right = remap(level[ni].right)
				}
			}
			nextGroups[a] = merged
			nextGroups = append(nextGroups[:b], nextGroups[b+1:]...)
		}
		current = nextGroups
	}
	// Terminal level: force leaves.
	last := len(dag.levels) - 1
	if last >= 0 {
		// If the loop exited by depth, current still holds unprocessed
		// groups — append them as a pure leaf level.
		if len(current) > 0 && dagHasOpenChildren(dag.levels[last]) {
			leafLevel := make([]dagNode, len(current))
			for ni, group := range current {
				leafLevel[ni] = dagNode{feature: -1, left: -1, right: -1, value: meanAt(target, group)}
			}
			dag.levels = append(dag.levels, leafLevel)
		}
	}
	return dag
}

// split finds the best of k random thresholds for feature f over group, a
// multiset of rows with 0/1 targets, pos of them positive, under gini. It
// is the sorted scan's random-threshold search (bestSplitSorted) without
// the sort. The scan needs, at each threshold, only how many members lie at
// or below it and how many of those are positive. So each member goes into
// the bucket of the first threshold at or above its value, and prefix sums
// over the buckets give the counts. Where the range is infinite the
// thresholds are all NaN (minimum -Inf) or +Inf (maximum +Inf, or a width
// that overflows), save a NaN drawn with probability 2⁻⁵³. Every member
// then compares alike with each of them (BinarySearch orders NaN first) and
// falls in one bucket, so, as in the scan, no threshold splits the group.
//
// The draws are the scan's: none when f is constant over group, else k
// thresholds from [min, max), sorted. The counts are integers, so
// countedGini scores each threshold with the floats the scan sums, and the
// split found is the scan's, bit for bit.
func (m *dagMem) split(x [][]float64, target []float64, group []int, f, pos, k int, r *rng.RNG) (threshold, score float64, ok bool) {
	lo, hi := x[group[0]][f], x[group[0]][f]
	for _, i := range group[1:] {
		v := x[i][f]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo >= hi {
		return 0, 0, false
	}
	thr := randomThresholds(m.thr[:k], lo, hi, r)
	below, posBelow := m.below[:k+1], m.posBelow[:k+1]
	clear(below)
	clear(posBelow)
	for _, i := range group {
		b, _ := slices.BinarySearch(thr, x[i][f])
		below[b]++
		posBelow[b] += int(target[i])
	}
	size := len(group)
	best := math.Inf(1)
	nL, posL := 0, 0
	for t, th := range thr {
		nL += below[t]
		posL += posBelow[t]
		if nL == 0 || nL == size {
			continue
		}
		if s := countedGini(nL, posL, size, pos); s < best {
			best, threshold, ok = s, th, true
		}
	}
	return threshold, best, ok
}

func dagHasOpenChildren(level []dagNode) bool {
	for _, n := range level {
		if n.feature >= 0 {
			return true
		}
	}
	return false
}

// mostSimilarPair returns the two group indices whose class-1 rates are
// closest — the cheap merge criterion standing in for the paper's
// impurity-increase minimization.
func mostSimilarPair(groups [][]int, target []float64) (int, int) {
	type rate struct {
		idx int
		p   float64
	}
	rates := make([]rate, len(groups))
	for i, g := range groups {
		rates[i] = rate{idx: i, p: meanAt(target, g)}
	}
	sort.Slice(rates, func(a, b int) bool { return rates[a].p < rates[b].p })
	bestA, bestB := rates[0].idx, rates[1].idx
	bestGap := math.Inf(1)
	for i := 1; i < len(rates); i++ {
		if gap := rates[i].p - rates[i-1].p; gap < bestGap {
			bestGap = gap
			bestA, bestB = rates[i-1].idx, rates[i].idx
		}
	}
	if bestA > bestB {
		bestA, bestB = bestB, bestA
	}
	return bestA, bestB
}

// Predict implements Classifier.
func (j *DecisionJungle) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		sum := 0.0
		for _, dag := range j.dags {
			sum += dag.predict(row)
		}
		if sum > float64(len(j.dags))/2 {
			out[i] = 1
		}
	}
	return out
}

func (d *dagModel) predict(row []float64) float64 {
	if len(d.levels) == 0 {
		return 0
	}
	cur := 0
	for li := 0; li < len(d.levels); li++ {
		node := d.levels[li][cur]
		if node.feature < 0 || li == len(d.levels)-1 {
			return node.value
		}
		if row[node.feature] <= node.threshold {
			cur = node.left
		} else {
			cur = node.right
		}
		if cur < 0 {
			return node.value
		}
	}
	lastLevel := d.levels[len(d.levels)-1]
	if cur < len(lastLevel) {
		return lastLevel[cur].value
	}
	return 0
}
