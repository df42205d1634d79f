package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// repl is the interpreter state behind the indexctl shell.
type repl struct {
	out      io.Writer
	net      overlay.Network
	stopNet  func() // releases net's nodes
	svc      *index.Service
	scheme   index.Scheme
	searcher *index.Searcher
	session  *index.Session
	options  []xpath.Query
	articles []descriptor.Article
	files    []string
}

var errQuit = errors.New("quit")

func newREPL(out io.Writer) *repl {
	return &repl{out: out, scheme: index.Simple, stopNet: func() {}}
}

// run executes commands line by line until EOF or quit.
func run(in io.Reader, out io.Writer) error {
	r := newREPL(out)
	defer func() { r.stopNet() }()
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 64<<10), 64<<10)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := r.exec(line); err != nil {
			if errors.Is(err, errQuit) {
				return nil
			}
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
	return scanner.Err()
}

func (r *repl) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		return r.help()
	case "network":
		return r.network(args)
	case "scheme":
		return r.setScheme(args)
	case "cache":
		return r.setCache(args)
	case "add":
		return r.add(args)
	case "load":
		return r.load(args)
	case "import":
		return r.importXML(args)
	case "find":
		return r.find(args)
	case "fuzzy":
		return r.fuzzy(args)
	case "vocab":
		return r.vocab()
	case "ask":
		return r.ask(args)
	case "refine":
		return r.refine(args)
	case "back":
		return r.back()
	case "promote":
		return r.promote(args)
	case "remove":
		return r.removeArticle(args)
	case "stats":
		return r.stats()
	case "quit", "exit":
		return errQuit
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (r *repl) help() error {
	fmt.Fprint(r.out, `commands:
  network <nodes> [chord|pastry]        create the overlay network
  scheme <simple|flat|complex|fig4>     select the indexing scheme
  cache <none|multi|single|lru> [cap]   select the cache policy
  add <file> <first> <last> <title...> <conf> <year> <size>
                                        publish one article (title may be quoted with _)
  load <count> [seed]                   publish a synthetic corpus
  import <path.xml>                     publish articles from a DBLP-style XML file
  find <query>                          automated search (paper syntax)
  fuzzy <query>                         search with misspelling correction
  vocab                                 enable value dictionaries (then re-add articles)
  ask <query>                           start an interactive session
  refine <n>                            follow option n of the last response
  back                                  undo the last refinement
  promote <file>                        short-circuit a published article
  remove <file>                         unpublish an article (recursive cleanup)
  stats                                 storage and cache statistics
  quit
`)
	return nil
}

func (r *repl) requireNetwork() error {
	if r.svc == nil {
		return errors.New("no network (run: network 50)")
	}
	return nil
}

func (r *repl) network(args []string) error {
	if len(args) < 1 {
		return errors.New("usage: network <nodes> [chord|pastry]")
	}
	nodes, err := strconv.Atoi(args[0])
	if err != nil || nodes < 1 {
		return fmt.Errorf("bad node count %q", args[0])
	}
	substrate := "chord"
	if len(args) > 1 {
		substrate = args[1]
	}
	var net overlay.Network
	stop := func() {}
	switch substrate {
	case "chord":
		ring, err := wire.StartMemRing(nodes, 0, 1)
		if err != nil {
			return err
		}
		net, stop = overlay.PerKey(ring), ring.Close // one message per key
	case "pastry":
		p := pastry.NewNetwork()
		if _, err := p.Populate(nodes); err != nil {
			return err
		}
		net = pastry.AsOverlay(p, 1)
	default:
		return fmt.Errorf("unknown substrate %q", substrate)
	}
	r.stopNet()
	r.net, r.stopNet = net, stop
	r.resetService(cache.None, 0)
	fmt.Fprintf(r.out, "network ready: %d %s nodes\n", nodes, substrate)
	return nil
}

// resetService builds a fresh service (cache policy changes need one) and
// republishes nothing — callers publish afterwards.
func (r *repl) resetService(policy cache.Policy, capacity int) {
	r.svc = index.New(r.net, policy, capacity)
	r.searcher = index.NewSearcher(r.svc)
	r.session = index.NewSession(r.svc)
	r.options = nil
	r.articles = nil
	r.files = nil
}

func (r *repl) setScheme(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: scheme <simple|flat|complex|fig4>")
	}
	scheme, err := index.SchemeByName(args[0])
	if err != nil {
		return err
	}
	r.scheme = scheme
	fmt.Fprintf(r.out, "scheme: %s\n", scheme.Name())
	return nil
}

func (r *repl) setCache(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) < 1 {
		return errors.New("usage: cache <none|multi|single|lru> [capacity]")
	}
	var policy cache.Policy
	capacity := 0
	switch args[0] {
	case "none":
		policy = cache.None
	case "multi":
		policy = cache.Multi
	case "single":
		policy = cache.Single
	case "lru":
		policy = cache.LRU
		capacity = 30
		if len(args) > 1 {
			c, err := strconv.Atoi(args[1])
			if err != nil || c < 1 {
				return fmt.Errorf("bad capacity %q", args[1])
			}
			capacity = c
		}
	default:
		return fmt.Errorf("unknown policy %q", args[0])
	}
	articles, files := r.articles, r.files
	r.resetService(policy, capacity)
	// Republish under the new service so the database survives the
	// policy change.
	for i, a := range articles {
		if err := r.svc.PublishArticle(files[i], a, r.scheme); err != nil {
			return err
		}
	}
	r.articles, r.files = articles, files
	fmt.Fprintf(r.out, "cache: %s (capacity %d), %d articles republished\n",
		policy, capacity, len(articles))
	return nil
}

func (r *repl) add(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) != 7 {
		return errors.New("usage: add <file> <first> <last> <title> <conf> <year> <size> (use _ for spaces)")
	}
	year, err := strconv.Atoi(args[5])
	if err != nil {
		return fmt.Errorf("bad year %q", args[5])
	}
	size, err := strconv.ParseInt(args[6], 10, 64)
	if err != nil {
		return fmt.Errorf("bad size %q", args[6])
	}
	unq := func(s string) string { return strings.ReplaceAll(s, "_", " ") }
	a := descriptor.Article{
		AuthorFirst: unq(args[1]), AuthorLast: unq(args[2]),
		Title: unq(args[3]), Conf: unq(args[4]), Year: year, Size: size,
	}
	if err := r.svc.PublishArticle(args[0], a, r.scheme); err != nil {
		return err
	}
	r.articles = append(r.articles, a)
	r.files = append(r.files, args[0])
	fmt.Fprintf(r.out, "published %s under %s\n", args[0], dataset.MSD(a))
	return nil
}

func (r *repl) load(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) < 1 {
		return errors.New("usage: load <count> [seed]")
	}
	count, err := strconv.Atoi(args[0])
	if err != nil || count < 1 {
		return fmt.Errorf("bad count %q", args[0])
	}
	seed := int64(1)
	if len(args) > 1 {
		s, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", args[1])
		}
		seed = s
	}
	corpus, err := dataset.Generate(dataset.Config{Articles: count, Seed: seed})
	if err != nil {
		return err
	}
	for i, a := range corpus.Articles {
		file := fmt.Sprintf("article-%05d.pdf", len(r.files))
		if err := r.svc.PublishArticle(file, a, r.scheme); err != nil {
			return err
		}
		r.articles = append(r.articles, a)
		r.files = append(r.files, file)
		_ = i
	}
	fmt.Fprintf(r.out, "published %d synthetic articles (%d total)\n", count, len(r.articles))
	return nil
}

func (r *repl) importXML(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) != 1 {
		return errors.New("usage: import <path.xml>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	corpus, err := dataset.LoadCorpus(f)
	if err != nil {
		return err
	}
	for _, a := range corpus.Articles {
		file := fmt.Sprintf("article-%05d.pdf", len(r.files))
		if err := r.svc.PublishArticle(file, a, r.scheme); err != nil {
			return err
		}
		r.articles = append(r.articles, a)
		r.files = append(r.files, file)
	}
	fmt.Fprintf(r.out, "imported %d articles from %s (%d total)\n",
		len(corpus.Articles), args[0], len(r.articles))
	return nil
}

func (r *repl) parseQuery(args []string) (xpath.Query, error) {
	if len(args) < 1 {
		return xpath.Query{}, errors.New("missing query")
	}
	return dataset.ParseQuery(strings.Join(args, " "))
}

func (r *repl) find(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	q, err := r.parseQuery(args)
	if err != nil {
		return err
	}
	results, trace, err := r.searcher.SearchAll(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%d result(s) in %d interactions", len(results), trace.Interactions)
	if trace.NonIndexed {
		fmt.Fprint(r.out, " (recovered via generalization)")
	}
	fmt.Fprintln(r.out)
	for _, res := range results {
		fmt.Fprintf(r.out, "  %s  <- %s\n", res.File, res.MSD)
	}
	return nil
}

func (r *repl) fuzzy(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	q, err := r.parseQuery(args)
	if err != nil {
		return err
	}
	results, corrected, trace, err := r.searcher.SearchAllFuzzy(q, 2)
	if err != nil {
		return err
	}
	if !corrected.Equal(q) {
		fmt.Fprintf(r.out, "corrected to %s\n", corrected)
	}
	fmt.Fprintf(r.out, "%d result(s) in %d interactions\n", len(results), trace.Interactions)
	for _, res := range results {
		fmt.Fprintf(r.out, "  %s  <- %s\n", res.File, res.MSD)
	}
	return nil
}

func (r *repl) vocab() error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	r.svc.EnableVocabulary()
	// Register vocabularies for everything already published.
	for _, a := range r.articles {
		if err := r.svc.RegisterVocabulary(a.Descriptor()); err != nil {
			return err
		}
	}
	fmt.Fprintf(r.out, "vocabulary enabled (%d articles registered)\n", len(r.articles))
	return nil
}

func (r *repl) ask(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	q, err := r.parseQuery(args)
	if err != nil {
		return err
	}
	opts, err := r.session.Ask(q)
	if err != nil {
		return err
	}
	return r.printOptions(opts)
}

func (r *repl) refine(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) != 1 {
		return errors.New("usage: refine <option-number>")
	}
	i, err := strconv.Atoi(args[0])
	if err != nil || i < 1 || i > len(r.options) {
		return fmt.Errorf("option %q out of range (1..%d)", args[0], len(r.options))
	}
	opts, err := r.session.Refine(r.options[i-1])
	if err != nil {
		return err
	}
	return r.printOptions(opts)
}

func (r *repl) back() error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	opts, err := r.session.Back()
	if err != nil {
		return err
	}
	return r.printOptions(opts)
}

func (r *repl) printOptions(opts index.Options) error {
	r.options = opts.Queries
	for _, f := range opts.Files {
		fmt.Fprintf(r.out, "FILE: %s\n", f)
	}
	for i, q := range opts.Queries {
		fmt.Fprintf(r.out, "%3d. %s\n", i+1, q)
	}
	if len(opts.Files) == 0 && len(opts.Queries) == 0 {
		fmt.Fprintln(r.out, "(no results)")
	}
	fmt.Fprintf(r.out, "[%d interactions so far]\n", opts.Interactions)
	return nil
}

func (r *repl) lookupArticle(file string) (descriptor.Article, error) {
	for i, f := range r.files {
		if f == file {
			return r.articles[i], nil
		}
	}
	return descriptor.Article{}, fmt.Errorf("unknown file %q", file)
}

func (r *repl) promote(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) != 1 {
		return errors.New("usage: promote <file>")
	}
	a, err := r.lookupArticle(args[0])
	if err != nil {
		return err
	}
	if err := r.svc.PromoteArticle(a, r.scheme); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "promoted %s\n", args[0])
	return nil
}

func (r *repl) removeArticle(args []string) error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	if len(args) != 1 {
		return errors.New("usage: remove <file>")
	}
	a, err := r.lookupArticle(args[0])
	if err != nil {
		return err
	}
	if err := r.svc.UnpublishArticle(args[0], a, r.scheme); err != nil {
		return err
	}
	for i, f := range r.files {
		if f == args[0] {
			r.files = append(r.files[:i], r.files[i+1:]...)
			r.articles = append(r.articles[:i], r.articles[i+1:]...)
			break
		}
	}
	fmt.Fprintf(r.out, "removed %s (index entries cleaned up)\n", args[0])
	return nil
}

func (r *repl) stats() error {
	if err := r.requireNetwork(); err != nil {
		return err
	}
	st := r.svc.StorageStats()
	cs := r.svc.CacheStats()
	fmt.Fprintf(r.out, "nodes: %d, articles: %d\n", st.Nodes, st.DataEntries)
	fmt.Fprintf(r.out, "index entries: %d (%.1f KB), %.1f entries/node\n",
		st.IndexEntries, float64(st.IndexBytes)/1024, st.MeanEntriesPerNode)
	fmt.Fprintf(r.out, "cached keys: %d total, %.1f/node (max %d)\n",
		cs.TotalKeys, cs.MeanKeys, cs.MaxKeys)
	return nil
}
