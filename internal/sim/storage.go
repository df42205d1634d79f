package sim

import (
	"fmt"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// SchemeStorage is one row of the §V-B storage comparison.
type SchemeStorage struct {
	Scheme string
	// IndexBytes is the total index metadata stored across all nodes.
	IndexBytes int64
	// IndexEntries is the number of index mappings.
	IndexEntries int
	// RelativeToSimple is IndexBytes / simple's IndexBytes (the paper:
	// simple 1.00, complex 1.25, flat 1.37).
	RelativeToSimple float64
	// OverheadVsData is IndexBytes / total article file bytes (the paper:
	// at most 0.5% in the worst case).
	OverheadVsData float64
}

// StorageReport reproduces §V-B: it indexes the same corpus under every
// scheme and compares index storage against each other and against the
// stored article files.
func StorageReport(corpus *dataset.Corpus, nodes int, seed int64) ([]SchemeStorage, error) {
	if corpus == nil || len(corpus.Articles) == 0 {
		return nil, fmt.Errorf("sim: storage report needs a corpus")
	}
	dataBytes := corpus.TotalFileBytes()
	out := make([]SchemeStorage, 0, 3)
	var simpleBytes int64
	for _, scheme := range index.Schemes() {
		st, err := schemeStorage(corpus, nodes, seed, scheme)
		if err != nil {
			return nil, err
		}
		row := SchemeStorage{
			Scheme:       scheme.Name(),
			IndexBytes:   st.IndexBytes,
			IndexEntries: st.IndexEntries,
		}
		if dataBytes > 0 {
			row.OverheadVsData = float64(st.IndexBytes) / float64(dataBytes)
		}
		if scheme.Name() == "simple" {
			simpleBytes = st.IndexBytes
		}
		out = append(out, row)
	}
	for i := range out {
		if simpleBytes > 0 {
			out[i].RelativeToSimple = float64(out[i].IndexBytes) / float64(simpleBytes)
		}
	}
	return out, nil
}

// schemeStorage indexes corpus under scheme on a fresh ring, one
// message per key, and reads back its storage accounting.
func schemeStorage(corpus *dataset.Corpus, nodes int, seed int64, scheme index.Scheme) (index.StorageStats, error) {
	ring, err := wire.StartMemRing(nodes, 0, seed+2)
	if err != nil {
		return index.StorageStats{}, fmt.Errorf("sim: ring: %w", err)
	}
	defer ring.Close()
	svc := index.New(overlay.PerKey(ring), cache.None, 0)
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("article-%05d.pdf", i), a, scheme); err != nil {
			return index.StorageStats{}, fmt.Errorf("sim: publish under %s: %w", scheme.Name(), err)
		}
	}
	return svc.StorageStats(), nil
}
