// Command engine is the CLI front end of the sketch/index/query engine.
//
// Usage:
//
//	engine sketch -o DIR [flags] file...   sketch files into an index directory
//	engine dist [flags] file...            all-vs-all pairwise distances
//	engine search -d DIR [flags] file...   top-K similarity search
//	engine serve -addr :8080 -d DIR        serve the index over HTTP
//
// An index is a directory (MANIFEST.json, segments/, per-shard
// write-ahead logs; see docs/FORMAT.md). sketch and serve create it
// when absent; -o and -d default to ./index.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"sketchengine/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch argv[0] {
	case "sketch":
		err = cmdSketch(argv[1:], stdout, stderr)
	case "dist":
		err = cmdDist(argv[1:], stdout, stderr)
	case "search":
		err = cmdSearch(argv[1:], stdout, stderr)
	case "serve":
		err = cmdServe(argv[1:], stdout, stderr)
	case "import":
		err = cmdImport(argv[1:], stdout, stderr)
	case "version", "-version", "--version":
		fmt.Fprintf(stdout, "engine %s\n", core.Version)
	case "help", "-h", "-help", "--help":
		usage(stdout)
	default:
		fmt.Fprintf(stderr, "engine: unknown command %q\n", argv[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// Asking for help is not an error; match `engine help`.
			return 0
		}
		if errors.Is(err, errFlagParse) {
			// The FlagSet already reported the problem on stderr.
			return 2
		}
		fmt.Fprintf(stderr, "engine: %v\n", err)
		return 1
	}
	return 0
}

// errFlagParse marks flag-parse failures already reported by the FlagSet.
var errFlagParse = errors.New("flag parse error")

func parseFlags(fs *flag.FlagSet, argv []string) error {
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errFlagParse
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `engine - sketch/index/query engine

Commands:
  sketch   sketch input files into an index directory (incremental; existing names are skipped)
  dist     all-vs-all pairwise distances between input files
  search   top-K similarity search of query files against an index directory
  serve    long-lived HTTP server: batched ingest, search, stats, snapshots
           (-coordinator scatter-gathers over -backends instead of serving an index)
  import   convert a legacy single-file JSON index (format 3 or 4, full width) into a directory
  version  print the engine version

Run "engine <command> -h" for per-command flags.
`)
}

// newFlagSet returns the FlagSet every subcommand starts from:
// continue-on-error parsing with diagnostics on stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// threadsFlag adds the worker-pool flag shared by every subcommand.
func threadsFlag(fs *flag.FlagSet) *int {
	return fs.Int("threads", 0, "worker pool size (0 = GOMAXPROCS)")
}

// sketchFlags adds the sketching-parameter flags shared by the
// subcommands that sketch with parameters of their own choosing.
func sketchFlags(fs *flag.FlagSet) (k, size, threads *int) {
	k = fs.Int("k", core.DefaultK, "shingle (k-mer) length")
	size = fs.Int("size", core.DefaultSignatureSize, "minhash signature size (slots)")
	threads = threadsFlag(fs)
	return
}

// profileFlags adds the pprof output flags shared by the one-shot
// subcommands (`serve` exposes net/http/pprof via -pprof-addr instead).
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return
}

// withProfiles runs fn between starting a CPU profile and writing a
// heap profile, when the respective paths are non-empty.
func withProfiles(cpu, mem string, fn func() error) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if mem != "" {
		f, err := os.Create(mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize final live-heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// defaultIndexDir is where -o and -d point unless told otherwise.
const defaultIndexDir = "index"

// lshFlags adds the LSH banding flags. Zero values mean "use the
// defaults" when creating an index and "keep the index's stored
// parameters" on search and serve.
func lshFlags(fs *flag.FlagSet) (bands, rows *int) {
	bands = fs.Int("bands", 0, "LSH bands per signature (0 = default; bands*rows must equal -size)")
	rows = fs.Int("rows", 0, "LSH rows per band (0 = default)")
	return
}

func segmentRowsFlag(fs *flag.FlagSet) *int {
	return fs.Int("segment-rows", 0, "records per sealed segment file (0 = default; new indexes only)")
}

func budgetFlag(fs *flag.FlagSet) *int {
	return fs.Int("budget", 0,
		"max full-width rescores per shard per query (0 = unbounded, exact results)")
}

// indexFlags are the flags of the subcommands that open an index
// directory and create it when absent (sketch, serve).
type indexFlags struct {
	fs *flag.FlagSet
	// retunes: the command opens an existing index under -bands/-rows
	// (serve, through core.OpenWith) instead of warning about them.
	retunes             bool
	k, size, threads    *int
	bands, rows, shards *int
	segRows, budget     *int
	name                *string
}

func addIndexFlags(fs *flag.FlagSet) *indexFlags {
	f := &indexFlags{fs: fs}
	f.k, f.size, f.threads = sketchFlags(fs)
	f.bands, f.rows = lshFlags(fs)
	f.shards = fs.Int("shards", 0, "index lock-stripe shards (0 = default; fixed at creation)")
	f.segRows = segmentRowsFlag(fs)
	f.budget = budgetFlag(fs)
	f.name = fs.String("name", "default", "index name (new indexes only)")
	return f
}

// hasManifest reports whether dir holds a committed index. The manifest
// rename is the commit point, so its presence is the test; core.Open
// handles everything after that.
func hasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, core.ManifestFile))
	return err == nil
}

// openOrCreate opens the index directory dir, or creates it from the
// flag values when it holds no index yet. An existing index keeps its
// stored parameters but, when f.retunes, its banding: -bands/-rows set
// it for this open, before anything can search the index, and the next
// snapshot writes it. Explicitly-set flags that disagree are warned
// about. A regular file at dir is left to core.OpenWith, whose error
// points at `engine import`.
func (f *indexFlags) openOrCreate(cmd, dir string, stderr io.Writer) (*core.Engine, error) {
	if fi, err := os.Stat(dir); err != nil || (fi.IsDir() && !hasManifest(dir)) {
		return core.NewEngine(core.Options{
			K: *f.k, SignatureSize: *f.size, Threads: *f.threads, IndexName: *f.name,
			Bands: *f.bands, RowsPerBand: *f.rows, Shards: *f.shards,
			Tiered: true, DataDir: dir, SegmentRows: *f.segRows, Budget: *f.budget,
		})
	}
	var lsh core.LSHParams
	if f.retunes {
		lsh = core.LSHParams{Bands: *f.bands, RowsPerBand: *f.rows}
	}
	ix, err := core.OpenWith(dir, lsh)
	if err != nil {
		return nil, err
	}
	ix.SetBudget(*f.budget)
	f.warnIgnored(cmd, ix, stderr)
	eng, err := core.NewEngineWithIndex(ix, *f.threads)
	if err != nil {
		ix.Close()
		return nil, err
	}
	return eng, nil
}

// warnIgnored warns about explicitly-set flags that conflict with an
// existing index's stored parameters, which win but for a retuning
// command's banding, so an index is never silently re-parameterized.
func (f *indexFlags) warnIgnored(cmd string, ix *core.Index, stderr io.Writer) {
	meta := ix.Metadata()
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if (set["k"] && meta.K != *f.k) || (set["size"] && meta.SignatureSize != *f.size) {
		fmt.Fprintf(stderr, "engine: %s: existing index %q uses k=%d size=%d; ignoring -k/-size flags\n",
			cmd, meta.Name, meta.K, meta.SignatureSize)
	}
	lshDiffers := (set["bands"] && meta.Bands != *f.bands) || (set["rows"] && meta.RowsPerBand != *f.rows)
	shardsDiffer := set["shards"] && meta.Shards != *f.shards
	switch {
	case f.retunes && shardsDiffer:
		fmt.Fprintf(stderr, "engine: %s: existing index %q uses shards=%d; ignoring -shards %d\n",
			cmd, meta.Name, meta.Shards, *f.shards)
	case !f.retunes && (lshDiffers || shardsDiffer):
		fmt.Fprintf(stderr, "engine: %s: existing index %q uses bands=%d rows=%d shards=%d; ignoring -bands/-rows/-shards flags\n",
			cmd, meta.Name, meta.Bands, meta.RowsPerBand, meta.Shards)
	}
	if f.retunes && (*f.bands != 0 || *f.rows != 0) {
		fmt.Fprintf(stderr, "engine: %s: existing index %q rebucketed to bands=%d rows=%d (-bands/-rows)\n",
			cmd, meta.Name, meta.Bands, meta.RowsPerBand)
	}
	if segRows := ix.Tier().SegmentRows; set["segment-rows"] && segRows != *f.segRows {
		fmt.Fprintf(stderr, "engine: %s: existing index %q uses segment-rows=%d; ignoring -segment-rows %d\n",
			cmd, meta.Name, segRows, *f.segRows)
	}
	if set["name"] && meta.Name != *f.name {
		fmt.Fprintf(stderr, "engine: %s: existing index is named %q; ignoring -name %q\n",
			cmd, meta.Name, *f.name)
	}
}

func cmdSketch(argv []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sketch", stderr)
	ixf := addIndexFlags(fs)
	cpu, mem := profileFlags(fs)
	out := fs.String("o", defaultIndexDir, "index directory (opened if it holds an index, created otherwise)")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("sketch: no input files")
	}
	return withProfiles(*cpu, *mem, func() error {
		eng, err := ixf.openOrCreate("sketch", *out, stderr)
		if err != nil {
			return err
		}
		ix := eng.Index()
		defer ix.Close()

		recs, err := readRecords(fs.Args())
		if err != nil {
			return err
		}
		// Skip already-indexed names before sketching so incremental runs
		// don't pay the minhash cost for records that will be discarded.
		skipped := 0
		fresh := recs[:0]
		for _, rec := range recs {
			if ix.Has(rec.Name) {
				skipped++
				fmt.Fprintf(stdout, "skip\t%s\t(already indexed)\n", rec.Name)
				continue
			}
			fresh = append(fresh, rec)
		}
		// Batched streaming ingest: sketching and shard inserts both fan
		// out over the worker pool.
		oks, err := eng.AddBatch(fresh)
		if err != nil {
			return err
		}
		added := 0
		for _, ok := range oks {
			if ok {
				added++
			}
		}
		skipped += len(fresh) - added
		if err := ix.SaveDir(); err != nil {
			return err
		}
		meta := ix.Metadata()
		fmt.Fprintf(stdout, "index\t%s\trecords=%d\tadded=%d\tskipped=%d\tk=%d\tsize=%d\n",
			meta.Name, meta.RecordCount, added, skipped, meta.K, meta.SignatureSize)
		return nil
	})
}

func cmdDist(argv []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dist", stderr)
	k, size, threads := sketchFlags(fs)
	cpu, mem := profileFlags(fs)
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("dist: need at least two input files")
	}
	return withProfiles(*cpu, *mem, func() error {
		sketcher, err := core.NewSketcher(*k, *size)
		if err != nil {
			return err
		}
		recs, err := readRecords(fs.Args())
		if err != nil {
			return err
		}
		pool := core.NewPool(*threads)
		sketches := make([]*core.Sketch, len(recs))
		pool.Map(len(recs), func(i int) {
			sketches[i] = sketcher.Sketch(recs[i])
		})
		results, err := core.PairwiseDistances(sketches, pool)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "a\tb\tsimilarity\tdistance")
		for _, r := range results {
			fmt.Fprintf(stdout, "%s\t%s\t%.4f\t%.4f\n", r.Query, r.Ref, r.Similarity, r.Distance)
		}
		return nil
	})
}

func cmdSearch(argv []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("search", stderr)
	// No -k/-size/-shards here: queries are always sketched with
	// the index's own parameters (see below), and its layout is fixed.
	threads := threadsFlag(fs)
	bands, rows := lshFlags(fs)
	budget := budgetFlag(fs)
	cpu, mem := profileFlags(fs)
	db := fs.String("d", defaultIndexDir, "index directory to search")
	topK := fs.Int("top", 5, "maximum results per query")
	minSim := fs.Float64("min", 0, "minimum similarity to report")
	modeFlag := fs.String("mode", "lsh", "search mode: lsh (banded candidate filter) or exact (full scan)")
	verbose := fs.Bool("v", false, "report index and arena memory details on stderr")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("search: no query files")
	}
	mode, err := core.ParseSearchMode(*modeFlag)
	if err != nil {
		return err
	}
	return withProfiles(*cpu, *mem, func() error {
		// -bands/-rows retune this run's open; nothing is saved.
		ix, err := core.OpenWith(*db, core.LSHParams{Bands: *bands, RowsPerBand: *rows})
		if err != nil {
			return err
		}
		defer ix.Close()
		ix.SetBudget(*budget)
		// The engine derives sketch parameters from the index metadata,
		// so queries are always sketched compatibly.
		eng, err := core.NewEngineWithIndex(ix, *threads)
		if err != nil {
			return err
		}
		if *verbose {
			meta, arena := ix.Metadata(), ix.Arena()
			fmt.Fprintf(stderr, "engine: search: index=%s records=%d bits=%d scan_kernel=%s signature_bytes=%d bytes_per_record=%.1f arena_utilization=%.2f\n",
				meta.Name, meta.RecordCount, arena.Bits, ix.ScanKernel(), arena.SignatureBytes, arena.BytesPerRecord, arena.Utilization)
			ts := ix.Tier()
			fmt.Fprintf(stderr, "engine: search: tier: prefilter_bits=%d segments=%d resident_bytes=%d mapped_bytes=%d head_bytes=%d budget=%d\n",
				ts.PrefilterBits, ts.Segments, ts.ResidentBytes, ts.MappedBytes, ts.HeadBytes, ts.Budget)
		}
		recs, err := readRecords(fs.Args())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "query\tref\trank\tsimilarity\tdistance")
		for _, rec := range recs {
			results, err := eng.Search(context.Background(), rec, core.Query{Mode: mode, TopK: *topK, MinSim: *minSim})
			if err != nil {
				return err
			}
			for rank, r := range results {
				fmt.Fprintf(stdout, "%s\t%s\t%d\t%.4f\t%.4f\n",
					r.Query, r.Ref, rank+1, r.Similarity, r.Distance)
			}
		}
		return nil
	})
}

// readRecords loads each path as one record named by its base name.
func readRecords(paths []string) ([]core.Record, error) {
	recs := make([]core.Record, 0, len(paths))
	seen := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(p)
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("duplicate record name %q (from %s and %s)", name, prev, p)
		}
		seen[name] = p
		recs = append(recs, core.Record{Name: name, Data: data})
	}
	return recs, nil
}
