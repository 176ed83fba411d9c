package pipeline

import (
	"fmt"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/codec"
	"mlaasbench/internal/featsel"
	"mlaasbench/internal/preprocess"
)

// Decode limits for fitted-pipeline state, mirroring internal/wire.
const (
	maxFeatName   = 1 << 8
	maxFilterCols = 1 << 20
)

// AppendFittedPipeline serializes a trained pipeline: the config that
// produced it (feat, classifier, typed params), the fitted FEAT statistics,
// then the trained classifier. Every float is written bit-exact, so a
// decoded pipeline predicts byte-identically to the resident one.
func AppendFittedPipeline(b []byte, fp *FittedPipeline) ([]byte, error) {
	b = codec.AppendString(b, fp.Config.Feat.Kind)
	b = codec.AppendString(b, fp.Config.Feat.Name)
	b = codec.AppendString(b, fp.Config.Classifier)
	b, err := classifiers.AppendParams(b, fp.Config.Params)
	if err != nil {
		return nil, err
	}
	if b, err = appendFittedTransform(b, fp.transform); err != nil {
		return nil, err
	}
	return classifiers.AppendFitted(b, fp.clf)
}

// DecodeFittedPipeline reconstructs a pipeline written by
// AppendFittedPipeline.
func DecodeFittedPipeline(r *codec.Reader) (*FittedPipeline, error) {
	var cfg Config
	cfg.Feat.Kind = r.String(maxFeatName)
	cfg.Feat.Name = r.String(maxFeatName)
	cfg.Classifier = r.String(maxFeatName)
	cfg.Params = classifiers.ReadParams(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	t, err := decodeFittedTransform(r)
	if err != nil {
		return nil, err
	}
	clf, err := classifiers.DecodeFitted(r)
	if err != nil {
		return nil, err
	}
	return &FittedPipeline{Config: cfg, transform: t, clf: clf}, nil
}

func appendFittedTransform(b []byte, t *FittedTransform) ([]byte, error) {
	b = codec.AppendString(b, t.feat.Kind)
	b = codec.AppendString(b, t.feat.Name)
	switch t.feat.Kind {
	case "", "none":
		return b, nil
	case "scaler":
		return preprocess.AppendScaler(b, t.row.(preprocess.Scaler))
	case "filter":
		return codec.AppendInts(b, t.row.(columns)), nil
	case "fisherlda":
		return featsel.AppendFisherLDA(b, t.row.(*featsel.FisherLDA)), nil
	default:
		return nil, fmt.Errorf("pipeline: cannot serialize FEAT kind %q", t.feat.Kind)
	}
}

func decodeFittedTransform(r *codec.Reader) (*FittedTransform, error) {
	t := &FittedTransform{}
	t.feat.Kind = r.String(maxFeatName)
	t.feat.Name = r.String(maxFeatName)
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch t.feat.Kind {
	case "", "none":
	case "scaler":
		sc, err := preprocess.DecodeScaler(r)
		if err != nil {
			return nil, err
		}
		t.row = sc
	case "filter":
		cols := r.Ints(maxFilterCols)
		for _, c := range cols {
			if c < 0 {
				r.Fail("filter column %d negative", c)
				break
			}
		}
		t.row = columns(cols)
	case "fisherlda":
		lda, err := featsel.DecodeFisherLDA(r)
		if err != nil {
			return nil, err
		}
		t.row = lda
	default:
		return nil, fmt.Errorf("%w: unknown FEAT kind %q", codec.ErrCorrupt, t.feat.Kind)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
