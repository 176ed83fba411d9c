package classifiers

import (
	"math"
	"slices"
	"sort"
	"sync"

	"mlaasbench/internal/rng"
)

// treeNode is one node of a CART tree. Leaves have feature == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64 // leaf: class-1 probability (classification) or mean (regression)
}

// treeConfig controls CART growth.
type treeConfig struct {
	maxDepth      int    // 0 = unlimited
	minLeaf       int    // minimum samples per leaf
	maxFeatures   string // "all", "sqrt", "log2"
	criterion     string // "gini", "entropy" (classification), "mse" (regression)
	randomSplits  int    // >0: extra-trees style — evaluate this many random thresholds per feature
	nodeThreshold int    // stop splitting nodes smaller than this (BigML's node threshold)
}

func (c treeConfig) featureCount(d int) int {
	switch c.maxFeatures {
	case "sqrt":
		k := int(math.Sqrt(float64(d)))
		if k < 1 {
			k = 1
		}
		return k
	case "log2":
		k := int(math.Log2(float64(d)))
		if k < 1 {
			k = 1
		}
		return k
	default:
		return d
	}
}

// featurePresort holds, for every feature, all row indices of a training
// matrix sorted by that feature's value (ties by row index). Each tree
// derives its root order from it in O(n) instead of re-sorting, which
// dominated whole-sweep CPU time. The indices are int32: a Presort keeps one
// alive for as long as its matrix, and half the width is half that memory.
type featurePresort struct {
	orders [][]int32
}

// presortFeatures argsorts every column of x. x must have fewer than 2³¹
// rows.
func presortFeatures(x [][]float64) *featurePresort {
	n, d := len(x), len(x[0])
	type keyed struct {
		v float64
		i int32
	}
	buf := make([]keyed, n)
	pre := &featurePresort{orders: make([][]int32, d)}
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			buf[i] = keyed{v: x[i][j], i: int32(i)}
		}
		// The (value, index) key is a total order, so the unstable sort
		// yields a deterministic, stable-equivalent result.
		slices.SortFunc(buf, func(a, b keyed) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			default:
				return int(a.i - b.i)
			}
		})
		ord := make([]int32, n)
		for k := range buf {
			ord[k] = buf[k].i
		}
		pre.orders[j] = ord
	}
	return pre
}

// Presort is the column argsort of one training matrix, built on first use
// and then shared read-only by every tree fit on that matrix through
// FitWith. It is bound to the matrix it was made for: handed any other
// matrix it is ignored and the fit argsorts afresh, so misuse costs speed,
// never a different model. Safe for concurrent use.
type Presort struct {
	x    [][]float64
	once sync.Once
	pre  *featurePresort
}

// NewPresort returns a presort of x. Nothing is sorted until a tree learner
// first fits on x, so a matrix only ever used by other learners never pays
// for it.
func NewPresort(x [][]float64) *Presort { return &Presort{x: x} }

// of returns the presort of x: p's own when p was made for x (same first
// row header, same length), a fresh one otherwise. A nil p always
// argsorts afresh.
func (p *Presort) of(x [][]float64) *featurePresort {
	if p == nil || len(x) == 0 || len(x) != len(p.x) || &x[0] != &p.x[0] {
		return presortFeatures(x)
	}
	p.once.Do(func() { p.pre = presortFeatures(p.x) })
	return p.pre
}

// presortFitter is implemented by the learners that grow trees from a
// column presort: dtree, bagging, randomforest and boosted. Their Fit is
// fitPresorted with a nil presort.
type presortFitter interface {
	fitPresorted(x [][]float64, y []int, r *rng.RNG, p *Presort) error
}

// FitWith fits clf on (x, y) exactly as clf.Fit does, except that a tree
// learner reuses p — a presort of x — instead of argsorting every column
// again. Other learners, a nil p and a p made for another matrix all fit
// as clf.Fit would. The fitted model is the same either way: the presort
// consumes no randomness and growth only reads it.
func FitWith(clf Classifier, x [][]float64, y []int, r *rng.RNG, p *Presort) error {
	if f, ok := clf.(presortFitter); ok {
		return f.fitPresorted(x, y, r, p)
	}
	return clf.Fit(x, y, r)
}

// treeMem is reusable growth storage. A tree learner's Fit takes one from
// treeMemPool and passes it to every growTreePresorted call, so the working
// memory of a fit (its targets and index lists, the derived orders,
// membership copies, partition staging, the candidate list and random
// thresholds of a split) is allocated once per fit size, not once per fit,
// tree or node. The tree returned by a call does not reference the memory,
// so reuse across trees and fits is safe. Between fits every cell of counts
// is zero; every other buffer is written before it is read.
type treeMem struct {
	counts    []int
	ordersBuf []int32
	scratch   []int32
	own       []int32
	side      []byte
	cand      []int
	thr       []float64
	boot      []int     // the tree's sample: a bootstrap draw or every row
	target    []float64 // the fit's targets: its 0/1 labels, or boosting's residuals
	score     []float64 // boosting's running scores
}

// sized returns s resliced to length n, or a new slice when s is too short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growTreePresorted grows one tree over the (multi)set idx, deriving each
// feature's sorted view of idx from the whole-matrix presort. idx is not
// modified.
//
// A bootstrap sample repeats rows: about 37 % of its n draws are copies.
// When its targets are 0/1 labels and the criterion is gini, as in every
// bagging and forest tree, the tree holds each distinct row once and weighs
// it by its multiplicity (see bestSplitCounted). Any other sample with
// repeats is expanded, one member per copy, and a sample without repeats
// grows as it is.
func growTreePresorted(pre *featurePresort, mem *treeMem, x [][]float64, target []float64, idx []int, cfg treeConfig, r *rng.RNG, depth int) *treeNode {
	n, d, m := len(x), len(x[0]), len(idx)
	mem.counts = sized(mem.counts, n)
	mem.ordersBuf = sized(mem.ordersBuf, d*m)
	mem.scratch = sized(mem.scratch, m)
	mem.own = sized(mem.own, m)
	mem.side = sized(mem.side, n)
	mem.cand = sized(mem.cand, d)
	mem.thr = sized(mem.thr, max(cfg.randomSplits, 0)) // <= 0: exhaustive scan, no draws
	counts, ordersBuf, own := mem.counts, mem.ordersBuf, mem.own
	// Multiplicity of each row in idx; expanding the presorted full order
	// by count yields idx sorted by the feature, duplicates adjacent.
	dup := false
	for _, i := range idx {
		counts[i]++
		if counts[i] > 1 {
			dup = true
		}
	}
	identity := m == n && !dup // idx covers every row exactly once
	weighted := dup && cfg.criterion == "gini" && zeroOne(target, idx)
	members := m
	if weighted {
		members = 0
		for i, c := range counts {
			if c > 0 {
				own[members] = int32(i)
				members++
			}
		}
	}
	for j := 0; j < d; j++ {
		ord := ordersBuf[j*members : (j+1)*members]
		switch {
		case identity:
			copy(ord, pre.orders[j])
		case weighted:
			// Branch-free filter: write every row, keep the drawn ones. A
			// sample that repeats has members < m, so ordersBuf holds the
			// slot past ord, which the next feature (if any) overwrites.
			spill := ordersBuf[j*members : (j+1)*members+1]
			k := 0
			for _, i := range pre.orders[j] {
				spill[k] = i
				k += min(counts[i], 1)
			}
		default:
			k := 0
			for _, i := range pre.orders[j] {
				for c := counts[i]; c > 0; c-- {
					ord[k] = i
					k++
				}
			}
		}
	}
	g := &grower{x: x, target: target, cfg: cfg, r: r, orders: ordersBuf, stride: members,
		scratch: mem.scratch, side: mem.side, cand: mem.cand, thr: mem.thr}
	if weighted {
		g.w = counts
		root := g.grow(own[:members], 0, m, depth)
		clear(counts) // leave counts zeroed for the next tree
		return root
	}
	for k, i := range idx {
		counts[i] = 0 // leave counts zeroed for the next tree
		own[k] = int32(i)
	}
	return g.grow(own, 0, m, depth)
}

// grower carries the per-tree growth state. All of it is per-fit memory
// (treeMem): a node allocates only its treeNode. Node membership lives in
// one member list and d per-feature sorted orders, and every split stably
// partitions all of them in place. A split sends the same members left in
// every one, so a node owns the same offset range [lo, hi) of the member
// list and of each order: feature j's order of the node is
// orders[j*stride+lo : j*stride+hi], its children own [lo, lo+nL) and
// [lo+nL, hi), and no node copies member indices or builds slice headers.
// Row indices are int32 like the presort's, so deriving a tree's orders is a
// plain copy and every partition moves half the bytes.
type grower struct {
	x       [][]float64
	target  []float64
	cfg     treeConfig
	r       *rng.RNG
	orders  []int32   // d segments of stride members, one sorted order per feature
	stride  int       // the tree's member count: the length of each segment
	scratch []int32   // right-side staging for the stable in-place partitions
	side    []byte    // per-row split side, computed once per split for all d partitions
	w       []int     // weighted tree: each row's multiplicity; nil when every member counts once
	cand    []int     // the candidate features of the node being split
	thr     []float64 // the random thresholds of the feature being scanned
}

// grow builds the subtree over idx, the members at offsets [lo, lo+len(idx))
// of the tree's member list; each feature's order holds the same members at
// the same offsets, sorted by that feature. The split permutes both in
// place. size is the node's sample count: len(idx), or in a weighted tree
// the members' multiplicities summed. It is what minLeaf, nodeThreshold and
// the leaf value count.
func (g *grower) grow(idx []int32, lo, size, depth int) *treeNode {
	cfg := g.cfg
	node := &treeNode{feature: -1}
	pos := 0 // weighted tree: the node's positive labels, copies included
	if g.w == nil {
		node.value = meanAt(g.target, idx)
	} else {
		for _, i := range idx {
			pos += g.w[i] * int(g.target[i])
		}
		node.value = float64(pos) / float64(size)
	}
	if size < 2*cfg.minLeaf || (cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return node
	}
	if cfg.nodeThreshold > 0 && size < cfg.nodeThreshold {
		return node
	}
	if pureAt(g.target, idx) {
		return node
	}
	d := len(g.x[0])
	nFeat := cfg.featureCount(d)
	candidates := g.cand
	if nFeat >= d {
		for j := range candidates {
			candidates[j] = j
		}
	} else {
		candidates = g.r.SampleInto(g.cand, d, nFeat)
	}
	hi := lo + len(idx)

	// Node totals, accumulated in idx order (shared by every candidate
	// feature — the totals are independent of the sort). A weighted tree
	// has them already: size and pos.
	var sumAll, sqAll float64
	if g.w == nil {
		for _, i := range idx {
			t := g.target[i]
			sumAll += t
			sqAll += t * t
		}
	}

	bestFeature, bestThreshold := -1, 0.0
	bestScore := math.Inf(1)
	for _, j := range candidates {
		order := g.orders[j*g.stride+lo : j*g.stride+hi]
		var thr, score float64
		var ok bool
		if g.w == nil {
			thr, score, ok = bestSplitSorted(g.x, g.target, order, j, sumAll, sqAll, cfg, g.r, g.thr)
		} else {
			thr, score, ok = bestSplitCounted(g.x, g.target, g.w, order, j, size, pos, cfg, g.r, g.thr)
		}
		if ok && score < bestScore {
			bestScore, bestFeature, bestThreshold = score, j, thr
		}
	}
	if bestFeature < 0 {
		return node
	}
	// Resolve each member's side of the split once; the d+1 partitions
	// below then test a byte instead of re-reading the matrix.
	for _, i := range idx {
		if g.x[i][bestFeature] <= bestThreshold {
			g.side[i] = 1
		} else {
			g.side[i] = 0
		}
	}
	nL := g.partition(idx)
	sizeL := nL
	if g.w != nil {
		sizeL = 0
		for _, i := range idx[:nL] {
			sizeL += g.w[i]
		}
	}
	if sizeL < cfg.minLeaf || size-sizeL < cfg.minLeaf {
		return node
	}
	// Carry every feature's sorted order into the children — they may
	// sample different candidate features. Each partition sends the same nL
	// members left, so the children's offset ranges hold in every order.
	for j := 0; j < d; j++ {
		g.partition(g.orders[j*g.stride+lo : j*g.stride+hi])
	}
	node.feature = bestFeature
	node.threshold = bestThreshold
	node.left = g.grow(idx[:nL], lo, sizeL, depth+1)
	node.right = g.grow(idx[nL:], lo+nL, size-sizeL, depth+1)
	return node
}

// partition stably reorders s in place so members on side 1 of the current
// split (per g.side) come first, in their original relative order,
// returning their count.
//
// It is kept out of line: inlined into grow, whose many live values crowd
// the registers, the loop reloaded or spilled its operands each iteration
// and forest fits ran 13–15 % slower on a 1 600 × 32 matrix
// (BenchmarkTreeFitRandomForestServe).
//
//go:noinline
func (g *grower) partition(s []int32) int {
	side, scratch := g.side, g.scratch
	w, sc := 0, 0
	for _, i := range s {
		b := int(side[i])
		s[w] = i
		scratch[sc] = i
		w += b
		sc += 1 - b
	}
	copy(s[w:], scratch[:sc])
	return w
}

// bestSplitSorted finds the impurity-minimizing threshold for feature j,
// given the node's member indices presorted by that feature and the node's
// target totals. With randomSplits > 0 it samples random thresholds
// (extra-trees style) into thr, which must hold at least randomSplits;
// otherwise it scans midpoints of the sorted unique values, maintaining
// running left/right sums — O(n) either way.
func bestSplitSorted(x [][]float64, target []float64, order []int32, j int, sumAll, sqAll float64, cfg treeConfig, r *rng.RNG, thr []float64) (threshold, score float64, ok bool) {
	n := len(order)
	if n == 0 || x[order[0]][j] >= x[order[n-1]][j] {
		return 0, 0, false
	}

	// Resolve the criterion string to an int once — the impurity closure
	// runs per candidate boundary and the string switch was measurable.
	const (
		critGini = iota
		critEntropy
		critMSE
	)
	crit := critGini
	switch cfg.criterion {
	case "entropy":
		crit = critEntropy
	case "mse":
		crit = critMSE
	}
	impurity := func(nL, sumL, sqL float64) float64 {
		nR := float64(n) - nL
		sumR := sumAll - sumL
		sqR := sqAll - sqL
		switch crit {
		case critEntropy:
			return nL*entropyOf(sumL/nL) + nR*entropyOf(sumR/nR)
		case critMSE:
			// Weighted variance = Σt² − (Σt)²/n per side.
			return (sqL - sumL*sumL/nL) + (sqR - sumR*sumR/nR)
		default: // gini
			return nL*giniOf(sumL/nL) + nR*giniOf(sumR/nR)
		}
	}

	best := math.Inf(1)
	found := false
	if cfg.randomSplits > 0 {
		var nL, sumL, sqL float64
		pi := 0
		for _, th := range randomThresholds(thr[:cfg.randomSplits], x[order[0]][j], x[order[n-1]][j], r) {
			for pi < n && x[order[pi]][j] <= th {
				t := target[order[pi]]
				nL++
				sumL += t
				sqL += t * t
				pi++
			}
			if nL == 0 || int(nL) == n {
				continue
			}
			if s := impurity(nL, sumL, sqL); s < best {
				best, threshold, found = s, th, true
			}
		}
		return threshold, best, found
	}

	// Exact scan: advance through sorted values, evaluating at each
	// boundary between distinct values. One loop per criterion so the
	// impurity arithmetic inlines — this runs for every candidate feature
	// of every node of every tree.
	var nL, sumL, sqL float64
	switch crit {
	case critMSE:
		for k := 0; k < n-1; k++ {
			i := order[k]
			t := target[i]
			nL++
			sumL += t
			sqL += t * t
			v, next := x[i][j], x[order[k+1]][j]
			if next == v {
				continue
			}
			nR := float64(n) - nL
			sumR := sumAll - sumL
			sqR := sqAll - sqL
			// Weighted variance = Σt² − (Σt)²/n per side.
			if s := (sqL - sumL*sumL/nL) + (sqR - sumR*sumR/nR); s < best {
				best = s
				threshold = (v + next) / 2
				found = true
			}
		}
	case critEntropy:
		for k := 0; k < n-1; k++ {
			i := order[k]
			t := target[i]
			nL++
			sumL += t
			v, next := x[i][j], x[order[k+1]][j]
			if next == v {
				continue
			}
			nR := float64(n) - nL
			sumR := sumAll - sumL
			if s := nL*entropyOf(sumL/nL) + nR*entropyOf(sumR/nR); s < best {
				best = s
				threshold = (v + next) / 2
				found = true
			}
		}
	default: // gini
		for k := 0; k < n-1; k++ {
			i := order[k]
			t := target[i]
			nL++
			sumL += t
			v, next := x[i][j], x[order[k+1]][j]
			if next == v {
				continue
			}
			nR := float64(n) - nL
			sumR := sumAll - sumL
			if s := nL*giniOf(sumL/nL) + nR*giniOf(sumR/nR); s < best {
				best = s
				threshold = (v + next) / 2
				found = true
			}
		}
	}
	return threshold, best, found
}

// bestSplitCounted is bestSplitSorted for a weighted tree of 0/1 labels
// under gini: order holds the node's distinct rows sorted by
// feature j, w their multiplicities, and size and pos the node's sample and
// positive-label counts, copies included. The running counts stay integers
// and are converted only where a split is scored. Every count is an integer
// below 2⁵³, so the conversion gives exactly the floats the expanded scan
// sums; and copies of a row share its value, so the boundaries (and the
// random thresholds drawn) are the expanded scan's too. The split found is
// therefore the expanded scan's, bit for bit.
func bestSplitCounted(x [][]float64, target []float64, w []int, order []int32, j, size, pos int, cfg treeConfig, r *rng.RNG, thr []float64) (threshold, score float64, ok bool) {
	n := len(order)
	if n == 0 || x[order[0]][j] >= x[order[n-1]][j] {
		return 0, 0, false
	}
	best := math.Inf(1)
	found := false
	nL, posL := 0, 0
	if cfg.randomSplits > 0 {
		pi := 0
		for _, th := range randomThresholds(thr[:cfg.randomSplits], x[order[0]][j], x[order[n-1]][j], r) {
			for pi < n && x[order[pi]][j] <= th {
				i := order[pi]
				nL += w[i]
				posL += w[i] * int(target[i])
				pi++
			}
			if nL == 0 || nL == size {
				continue
			}
			if s := countedGini(nL, posL, size, pos); s < best {
				best, threshold, found = s, th, true
			}
		}
		return threshold, best, found
	}
	for k := 0; k < n-1; k++ {
		i := order[k]
		nL += w[i]
		posL += w[i] * int(target[i])
		v, next := x[i][j], x[order[k+1]][j]
		if next == v {
			continue
		}
		if s := countedGini(nL, posL, size, pos); s < best {
			best = s
			threshold = (v + next) / 2
			found = true
		}
	}
	return threshold, best, found
}

// countedGini is the gini impurity of a split that sends nL of a node's
// size samples, posL of its pos positive ones, left: bestSplitSorted's gini
// expression on the same floats.
func countedGini(nL, posL, size, pos int) float64 {
	fL, sumL := float64(nL), float64(posL)
	nR, sumR := float64(size-nL), float64(pos-posL)
	return fL*giniOf(sumL/fL) + nR*giniOf(sumR/nR)
}

// randomThresholds fills thr with len(thr) thresholds drawn uniformly from
// [lo, hi), ascending, and returns it.
func randomThresholds(thr []float64, lo, hi float64, r *rng.RNG) []float64 {
	for t := range thr {
		thr[t] = r.Uniform(lo, hi)
	}
	sortFloats(thr)
	return thr
}

func (n *treeNode) predict(row []float64) float64 {
	for n.feature >= 0 {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

func (n *treeNode) depth() int {
	if n == nil || n.feature < 0 {
		return 0
	}
	l, r := n.left.depth(), n.right.depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

func giniOf(p float64) float64 { return 2 * p * (1 - p) }

func entropyOf(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

func meanAt[T int | int32](target []float64, idx []T) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += target[i]
	}
	return s / float64(len(idx))
}

func pureAt[T int | int32](target []float64, idx []T) bool {
	if len(idx) == 0 {
		return true
	}
	first := target[idx[0]]
	for _, i := range idx[1:] {
		if target[i] != first {
			return false
		}
	}
	return true
}

// sortFloats is insertion sort for small slices (the common case inside
// split search), stdlib sort otherwise.
func sortFloats(v []float64) {
	if len(v) < 24 {
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j] < v[j-1]; j-- {
				v[j], v[j-1] = v[j-1], v[j]
			}
		}
		return
	}
	sort.Float64s(v)
}

// zeroOne reports whether every target of idx is a 0/1 label.
func zeroOne(target []float64, idx []int) bool {
	for _, i := range idx {
		if t := target[i]; t != 0 && t != 1 {
			return false
		}
	}
	return true
}

// allIndices returns [0, n) in buf, or in a new slice when buf is too
// short.
func allIndices(buf []int, n int) []int {
	idx := sized(buf, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// bootstrapIndices samples n indices with replacement into buf, or into a
// new slice when buf is too short.
func bootstrapIndices(buf []int, n int, r *rng.RNG) []int {
	idx := sized(buf, n)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	return idx
}

// labelsToFloats converts 0/1 ints to floats for the tree engine, into buf
// or into a new slice when buf is too short.
func labelsToFloats(buf []float64, y []int) []float64 {
	out := sized(buf, len(y))
	for i, v := range y {
		out[i] = float64(v)
	}
	return out
}
