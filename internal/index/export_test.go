package index

import (
	"dhtindex/internal/cache"
	"dhtindex/internal/overlay"
	"dhtindex/internal/xpath"
)

// respondPerEntry is the reference respond is held to: the read path
// before lists were kept per key (DESIGN.md §34) and before shortcut
// stores held parsed targets (DESIGN.md §43). Every index entry is
// parsed through the memo on every lookup into a fresh Index slice, and
// every shortcut target's form is parsed anew into a fresh Cached
// slice; both are then sorted into canonical order when they arrived
// out of it.
func (s *Service) respondPerEntry(q xpath.Query, got overlay.GetResult) (Response, error) {
	if got.Err != nil {
		return Response{}, got.Err
	}
	entries := got.Entries
	resp := Response{Node: got.Route.Node, Hops: got.Route.Hops}
	var shortcuts []string
	if s.policy != cache.None {
		if nc := s.nodeCache(resp.Node); nc != nil {
			nc.mu.Lock()
			for _, target := range nc.store.Targets(q.String()) {
				shortcuts = append(shortcuts, target.String())
			}
			nc.mu.Unlock()
		}
	}
	nIndex := 0
	for _, e := range entries {
		if e.Kind == KindIndex {
			nIndex++
		}
	}
	if nIndex > 0 {
		resp.Index = make([]xpath.Query, 0, nIndex)
	}
	if len(shortcuts) > 0 {
		resp.Cached = make([]xpath.Query, 0, len(shortcuts))
	}
	for _, e := range entries {
		switch e.Kind {
		case KindIndex:
			if target, ok := s.parseCached(e.Value); ok {
				resp.Index = append(resp.Index, target)
				resp.Bytes += int64(len(e.Value))
			}
		case KindData:
			resp.Files = append(resp.Files, e.Value)
			resp.Bytes += int64(len(e.Value))
		}
	}
	for _, tgt := range shortcuts {
		if target, err := xpath.Parse(tgt); err == nil {
			resp.Cached = append(resp.Cached, target)
			resp.CachePortion += int64(len(tgt))
		}
	}
	resp.Bytes += resp.CachePortion
	sortCanonical(resp.Index)
	sortCanonical(resp.Cached)
	return resp, nil
}

// keptList returns the list the service keeps for q's key (nil if none).
func (s *Service) keptList(q xpath.Query) []xpath.Query {
	return s.kept(q.Key()).index
}

// keptCount returns how many kept lists the service holds.
func (s *Service) keptCount() int {
	n := 0
	for i := range s.lists {
		sh := &s.lists[i]
		sh.mu.RLock()
		n += len(sh.lists)
		sh.mu.RUnlock()
	}
	return n
}

// spoilDigest makes q's kept list carry a digest its set does not have,
// so the next conditional lookup of q misses.
func (s *Service) spoilDigest(q xpath.Query) {
	sh := s.listShard(q.Key())
	sh.mu.Lock()
	kept := sh.lists[q.Key()]
	kept.digest++
	sh.lists[q.Key()] = kept
	sh.mu.Unlock()
}

// shortcutCount returns how many shortcut pairs a node's store holds,
// and whether the node has a store at all.
func (s *Service) shortcutCount(nodeAddr string) (int, bool) {
	nc := s.nodeCache(nodeAddr)
	if nc == nil {
		return 0, false
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.store.Len(), true
}
