package classifiers

import (
	"fmt"
	"sort"

	"mlaasbench/internal/codec"
	"mlaasbench/internal/linalg"
)

// Decode limits for fitted-classifier state (MLMF artifacts). Generous
// multiples of anything the training substrate produces, but small enough
// that a forged header cannot drive a pathological allocation: every
// variable-length read below is additionally bounded by the bytes actually
// present in the payload (see codec.Reader).
const (
	maxModelFeatures = 1 << 20 // weight-vector length
	maxModelSamples  = 1 << 22 // kNN training backing rows
	maxTreeNodes     = 1 << 22 // total nodes per tree-ensemble model
	maxEnsembleSize  = 1 << 12 // trees per ensemble / DAGs per jungle
	maxDagLevels     = 1 << 10
	maxDagWidth      = 1 << 16
	maxParamEntries  = 64
	maxParamString   = 1 << 10
)

// Typed parameter-value tags. Params cross the JSON boundary as exactly
// these three types (ParamSpec.Check canonicalizes them at the API), and
// the typed encoding keeps them exact across a round-trip — a JSON
// re-encode would silently turn ints into float64s and change
// Config.String().
const (
	paramFloat = iota + 1
	paramInt
	paramString
)

// AppendParams serializes a Params map with sorted keys (deterministic
// bytes for identical params) and per-value type tags.
func AppendParams(b []byte, p Params) ([]byte, error) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = codec.AppendString(b, k)
		switch v := p[k].(type) {
		case float64:
			b = codec.AppendU8(b, paramFloat)
			b = codec.AppendF64(b, v)
		case int:
			b = codec.AppendU8(b, paramInt)
			b = codec.AppendI64(b, int64(v))
		case string:
			b = codec.AppendU8(b, paramString)
			b = codec.AppendString(b, v)
		default:
			return nil, fmt.Errorf("classifiers: cannot serialize param %q of type %T", k, p[k])
		}
	}
	return b, nil
}

// ReadParams decodes a Params map written by AppendParams.
func ReadParams(r *codec.Reader) Params {
	n := r.Count(maxParamEntries, 5) // key count + tag minimum
	p := make(Params, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String(maxParamString)
		switch tag := r.U8(); tag {
		case paramFloat:
			p[k] = r.F64()
		case paramInt:
			p[k] = int(r.I64())
		case paramString:
			p[k] = r.String(maxParamString)
		default:
			r.Fail("unknown param tag %d for %q", tag, k)
		}
	}
	return p
}

// AppendFitted serializes a fitted classifier: registry name, params, then
// the type-specific trained state (weights, trees, training backing). All
// floats round-trip bit-exact, so a decoded model predicts byte-identically
// to the resident one.
func AppendFitted(b []byte, c Classifier) ([]byte, error) {
	b = codec.AppendString(b, c.Name())
	b, err := AppendParams(b, c.Params())
	if err != nil {
		return nil, err
	}
	switch t := c.(type) {
	case *LogisticRegression:
		b = codec.AppendF64s(b, t.w)
		b = codec.AppendF64(b, t.b)
		b = codec.AppendBool(b, t.noIntercept)
	case *LDA:
		b = codec.AppendF64s(b, t.w)
		b = codec.AppendF64(b, t.bias)
	case *LinearSVM:
		b = codec.AppendF64s(b, t.w)
		b = codec.AppendF64(b, t.b)
	case *AveragedPerceptron:
		b = codec.AppendF64s(b, t.w)
		b = codec.AppendF64(b, t.b)
	case *BayesPointMachine:
		b = codec.AppendF64s(b, t.w)
		b = codec.AppendF64(b, t.b)
	case *NaiveBayes:
		b = codec.AppendF64(b, t.logPri[0])
		b = codec.AppendF64(b, t.logPri[1])
		for c := 0; c < 2; c++ {
			b = codec.AppendF64s(b, t.mean[c])
			b = codec.AppendF64s(b, t.vari[c])
		}
	case *KNN:
		b = appendMatrix(b, t.x)
		b = codec.AppendInts(b, t.y)
	case *MLP:
		hidden, d := len(t.w1), 0
		if hidden > 0 {
			d = len(t.w1[0])
		}
		b = codec.AppendU32(b, uint32(hidden))
		b = codec.AppendU32(b, uint32(d))
		flat := t.w1flat
		if len(flat) != hidden*d {
			// Models assembled row-by-row (tests) have no flat backing.
			flat = make([]float64, 0, hidden*d)
			for _, row := range t.w1 {
				flat = append(flat, row...)
			}
		}
		for _, v := range flat {
			b = codec.AppendF64(b, v)
		}
		b = codec.AppendF64s(b, t.b1)
		b = codec.AppendF64s(b, t.w2)
		b = codec.AppendF64(b, t.b2)
	case *DecisionTree:
		budget := maxTreeNodes
		b = appendTree(b, t.root, &budget)
	case *Bagging:
		b = appendForest(b, t.trees)
	case *RandomForest:
		b = appendForest(b, t.trees)
	case *BoostedTrees:
		b = appendForest(b, t.trees)
		b = codec.AppendF64(b, t.lr)
		b = codec.AppendF64(b, t.bias)
	case *DecisionJungle:
		b = codec.AppendU32(b, uint32(len(t.dags)))
		for _, dag := range t.dags {
			b = appendDAG(b, dag)
		}
	default:
		return nil, fmt.Errorf("classifiers: cannot serialize %T", c)
	}
	return b, nil
}

// DecodeFitted reconstructs a fitted classifier written by AppendFitted.
func DecodeFitted(r *codec.Reader) (Classifier, error) {
	name := r.String(maxParamString)
	p := ReadParams(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown classifier %q", codec.ErrCorrupt, name)
	}
	c := e.build(p)
	switch t := c.(type) {
	case *LogisticRegression:
		t.w = r.F64s(maxModelFeatures)
		t.b = r.F64()
		t.noIntercept = r.Bool()
	case *LDA:
		t.w = r.F64s(maxModelFeatures)
		t.bias = r.F64()
	case *LinearSVM:
		t.w = r.F64s(maxModelFeatures)
		t.b = r.F64()
	case *AveragedPerceptron:
		t.w = r.F64s(maxModelFeatures)
		t.b = r.F64()
	case *BayesPointMachine:
		t.w = r.F64s(maxModelFeatures)
		t.b = r.F64()
	case *NaiveBayes:
		t.logPri[0] = r.F64()
		t.logPri[1] = r.F64()
		for cl := 0; cl < 2; cl++ {
			t.mean[cl] = r.F64s(maxModelFeatures)
			t.vari[cl] = r.F64s(maxModelFeatures)
		}
		t.derive()
	case *KNN:
		// The training rows decode straight into the one contiguous matrix
		// the distance kernels scan; t.x is row views over it.
		rows := r.Count(maxModelSamples, 0)
		cols := r.Count(maxModelFeatures, 0)
		if r.Err() == nil && rows > 0 {
			if rows*cols*8 > r.Remaining() {
				r.Fail("knn: matrix %dx%d exceeds payload", rows, cols)
			} else {
				t.xm = linalg.NewMatrix(rows, cols)
				for i := range t.xm.Data {
					t.xm.Data[i] = r.F64()
				}
				t.x = make([][]float64, rows)
				for i := range t.x {
					t.x[i] = t.xm.Data[i*cols : (i+1)*cols : (i+1)*cols]
				}
			}
		}
		t.y = r.Ints(maxModelSamples)
		if r.Err() == nil && len(t.y) != len(t.x) {
			r.Fail("knn: %d rows vs %d labels", len(t.x), len(t.y))
		}
	case *MLP:
		hidden := r.Count(1<<16, 0)
		d := r.Count(maxModelFeatures, 0)
		if r.Err() == nil && hidden*d*8 > r.Remaining() {
			r.Fail("mlp: %dx%d weights exceed payload", hidden, d)
		}
		if r.Err() == nil {
			t.w1flat = make([]float64, hidden*d)
			for i := range t.w1flat {
				t.w1flat[i] = r.F64()
			}
			t.w1 = make([][]float64, hidden)
			for h := range t.w1 {
				t.w1[h] = t.w1flat[h*d : (h+1)*d : (h+1)*d]
			}
		}
		t.b1 = r.F64s(1 << 16)
		t.w2 = r.F64s(1 << 16)
		t.b2 = r.F64()
		if r.Err() == nil && (len(t.b1) != hidden || len(t.w2) != hidden) {
			r.Fail("mlp: bias/output arity %d/%d vs %d hidden", len(t.b1), len(t.w2), hidden)
		}
	case *DecisionTree:
		budget := maxTreeNodes
		t.root = readTree(r, &budget)
	case *Bagging:
		t.trees = readForest(r)
	case *RandomForest:
		t.trees = readForest(r)
	case *BoostedTrees:
		t.trees = readForest(r)
		t.lr = r.F64()
		t.bias = r.F64()
	case *DecisionJungle:
		n := r.Count(maxEnsembleSize, 4)
		if r.Err() == nil {
			t.dags = make([]*dagModel, 0, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				t.dags = append(t.dags, readDAG(r))
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// appendMatrix writes a rectangular [][]float64 as rows, cols, then values
// row-major.
func appendMatrix(b []byte, x [][]float64) []byte {
	rows, cols := len(x), 0
	if rows > 0 {
		cols = len(x[0])
	}
	b = codec.AppendU32(b, uint32(rows))
	b = codec.AppendU32(b, uint32(cols))
	for _, row := range x {
		for _, v := range row {
			b = codec.AppendF64(b, v)
		}
	}
	return b
}

// Tree serialization: preorder, one record per node (feature i32 as i64,
// threshold, value), children present exactly when feature >= 0. Encoding
// and decoding both run iteratively with an explicit stack, so a
// degenerate path-shaped tree cannot overflow the goroutine stack, and a
// shared node budget bounds the total allocation across an ensemble.

func appendTree(b []byte, root *treeNode, budget *int) []byte {
	stack := []*treeNode{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		*budget--
		b = codec.AppendI64(b, int64(n.feature))
		b = codec.AppendF64(b, n.threshold)
		b = codec.AppendF64(b, n.value)
		if n.feature >= 0 {
			stack = append(stack, n.right, n.left) // left pops first: preorder
		}
	}
	return b
}

func readTree(r *codec.Reader, budget *int) *treeNode {
	var root *treeNode
	slots := []**treeNode{&root}
	for len(slots) > 0 && r.Err() == nil {
		slot := slots[len(slots)-1]
		slots = slots[:len(slots)-1]
		*budget--
		if *budget < 0 {
			r.Fail("tree exceeds %d-node budget", maxTreeNodes)
			return nil
		}
		feature := int(r.I64())
		n := &treeNode{feature: feature, threshold: r.F64(), value: r.F64()}
		if feature >= maxModelFeatures || feature < -1 {
			r.Fail("tree node feature %d out of range", feature)
			return nil
		}
		if feature >= 0 {
			slots = append(slots, &n.right, &n.left)
		}
		*slot = n
	}
	return root
}

func appendForest(b []byte, trees []*treeNode) []byte {
	b = codec.AppendU32(b, uint32(len(trees)))
	budget := maxTreeNodes
	for _, t := range trees {
		b = appendTree(b, t, &budget)
	}
	return b
}

func readForest(r *codec.Reader) []*treeNode {
	// Every tree is at least one 20-byte leaf record.
	n := r.Count(maxEnsembleSize, 20)
	if r.Err() != nil || n == 0 {
		return nil
	}
	trees := make([]*treeNode, 0, n)
	budget := maxTreeNodes
	for i := 0; i < n && r.Err() == nil; i++ {
		trees = append(trees, readTree(r, &budget))
	}
	return trees
}

// DAG serialization: levels outer-to-inner, each node as (feature i64,
// threshold, left i64, right i64, value). Child indices are validated
// against the next level's width at decode time, so a corrupt artifact can
// never drive predict out of range.

func appendDAG(b []byte, d *dagModel) []byte {
	b = codec.AppendU32(b, uint32(len(d.levels)))
	for _, level := range d.levels {
		b = codec.AppendU32(b, uint32(len(level)))
		for _, n := range level {
			b = codec.AppendI64(b, int64(n.feature))
			b = codec.AppendF64(b, n.threshold)
			b = codec.AppendI64(b, int64(n.left))
			b = codec.AppendI64(b, int64(n.right))
			b = codec.AppendF64(b, n.value)
		}
	}
	return b
}

func readDAG(r *codec.Reader) *dagModel {
	nLevels := r.Count(maxDagLevels, 4)
	if r.Err() != nil {
		return nil
	}
	d := &dagModel{levels: make([][]dagNode, 0, nLevels)}
	for li := 0; li < nLevels && r.Err() == nil; li++ {
		width := r.Count(maxDagWidth, 40) // 40 bytes per node record
		level := make([]dagNode, width)
		for ni := range level {
			level[ni] = dagNode{
				feature:   int(r.I64()),
				threshold: r.F64(),
				left:      int(r.I64()),
				right:     int(r.I64()),
				value:     r.F64(),
			}
		}
		d.levels = append(d.levels, level)
	}
	if r.Err() != nil {
		return nil
	}
	// Structural validation: internal nodes must point into the next level.
	for li, level := range d.levels {
		for ni, n := range level {
			if n.feature < -1 || n.feature >= maxModelFeatures {
				r.Fail("dag level %d node %d: feature %d out of range", li, ni, n.feature)
				return nil
			}
			if n.feature < 0 {
				continue
			}
			if li+1 >= len(d.levels) {
				continue // predict treats last-level internals as leaves
			}
			next := len(d.levels[li+1])
			if n.left < 0 || n.left >= next || n.right < 0 || n.right >= next {
				r.Fail("dag level %d node %d: child %d/%d outside next level %d", li, ni, n.left, n.right, next)
				return nil
			}
		}
	}
	return d
}
