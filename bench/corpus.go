package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// Generator constants shared by every workload, so the four workloads
// differ only in the parameters their table rows name.
const (
	minDocBytes  = 256
	maxDocBytes  = 16 << 10
	mutationRate = 0.01 // share of bytes substituted in a near-duplicate
	familySize   = 20   // near-duplicates per base document
	zipfS        = 1.1  // query popularity skew over families
	hitQueries   = 2048 // distinct prepared hit queries
	missQueries  = 256  // distinct prepared miss queries
	payloadDocs  = 2048 // distinct ingest payload documents
	deleteLag    = 256  // a delete targets a record written at least this many ops earlier
	digestOps    = 4096 // planned operations folded into the digest
	mixBlock     = 100  // operations per block of the schedule; a mix is given in operations per block
)

// The generator is stratified: what decides how much work an input is
// (document sizes, how popular each family is with the queries, the
// operation mix, ingest batch sizes) follows fixed low-discrepancy
// sequences, and the seed decides the text, every order and the arrival
// times. Two seeds then cost the system the same, so the spread over
// seeds measures the machine and not the luck of a draw: with plain
// random draws one seed's most popular family (a sixth of all queries)
// had a 16 KiB document and another's a 300 B one.

// golden is the fractional part of the golden ratio: frac(i*golden) is
// evenly spread over [0,1) for every prefix of i = 1, 2, ...
const golden = 0.6180339887498949

// docSize is the i-th size of a log-uniform sequence over
// [minDocBytes, maxDocBytes].
func docSize(i int) int {
	_, u := math.Modf(float64(i+1) * golden)
	return int(minDocBytes * math.Pow(maxDocBytes/minDocBytes, u))
}

// PCG stream ids: one independent stream per purpose, so changing how
// many values one purpose draws never shifts another's.
const (
	streamCorpus = iota + 1
	streamQueries
	streamPayloads
	streamOps
	streamArrivals
	streamMembers = 1 << 32 // + record index: one stream per preloaded record
)

type opKind uint8

const (
	opSearchHit opKind = iota
	opSearchMiss
	opIngest
	opDelete
)

func (k opKind) isWrite() bool { return k == opIngest || k == opDelete }

// mix is a workload's operation mix in operations per block of
// mixBlock, summing to mixBlock; maxBatch is the largest ingest request
// (sizes cycle through 1..maxBatch in seeded order).
type mix struct {
	hit, miss, ingest, del int
	maxBatch               int
}

// op is one planned operation. due is the arrival offset from the
// start of the open-loop phase that consumes it (closed loops ignore
// it). Ingest ops carry payload indexes and their record names; delete
// ops the name of a record an earlier ingest wrote.
type op struct {
	index    int
	kind     opKind
	gap      time.Duration
	query    int
	payloads []int
	names    []string
}

// corpus is everything a workload's inputs derive from one seed: the
// family base documents (members are re-derived on demand, so a 100k
// corpus holds 5k documents in memory), the prepared queries and the
// ingest payload pool.
type corpus struct {
	seed     uint64
	records  int
	bases    [][]byte
	hitDocs  [][]byte
	missDocs [][]byte
	payloads [][]byte
	sum      hash.Hash // queries, payloads, then the records of the first walk
	walked   bool
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// randomText fills dst with lowercase letters, 13 per 64-bit draw
// (26^13 < 2^64; the residual bias is far below anything a sketch
// sees).
func randomText(r *rand.Rand, dst []byte) {
	for i := 0; i < len(dst); {
		v := r.Uint64()
		for j := 0; j < 13 && i < len(dst); j, i = j+1, i+1 {
			dst[i] = 'a' + byte(v%26)
			v /= 26
		}
	}
}

// mutate returns a copy of src with mutationRate of its bytes
// substituted by a different letter (at least one).
func mutate(r *rand.Rand, src []byte) []byte {
	dst := append([]byte(nil), src...)
	n := max(1, int(float64(len(src))*mutationRate))
	for i := 0; i < n; i++ {
		p := r.IntN(len(dst))
		dst[p] = 'a' + (dst[p]-'a'+1+byte(r.IntN(25)))%26
	}
	return dst
}

// newCorpus derives the family bases, the query sets and the ingest
// payload pool from seed. records is rounded down to whole families.
func newCorpus(seed uint64, records int) *corpus {
	families := max(1, records/familySize)
	c := &corpus{seed: seed, records: families * familySize, sum: sha256.New()}
	r := newRand(seed, streamCorpus)
	c.bases = make([][]byte, families)
	for f := range c.bases {
		c.bases[f] = make([]byte, docSize(f))
		randomText(r, c.bases[f])
	}

	// Hit queries: a fresh mutation of a member of a family, so every
	// hit query has familySize neighbours above the LSH threshold and
	// fills K from candidates alone. Family f gets the share of the
	// queries a zipfian popularity gives it, (1+f)^-zipfS, as exactly as
	// hitQueries divides; the seed shuffles the order. Miss queries are
	// unrelated text: no candidates, so SearchTopKLSH falls back to
	// scanning the rest of the corpus.
	qr := newRand(seed, streamQueries)
	cdf := make([]float64, families)
	total := 0.0
	for f := range cdf {
		total += math.Pow(float64(1+f), -zipfS)
		cdf[f] = total
	}
	c.hitDocs = make([][]byte, hitQueries)
	f := 0
	for i := range c.hitDocs {
		for cdf[f] < (float64(i)+0.5)/hitQueries*total {
			f++
		}
		c.hitDocs[i] = mutate(qr, c.member(f, qr.IntN(familySize)))
	}
	qr.Shuffle(len(c.hitDocs), func(i, j int) { c.hitDocs[i], c.hitDocs[j] = c.hitDocs[j], c.hitDocs[i] })
	c.missDocs = make([][]byte, missQueries)
	for i := range c.missDocs {
		c.missDocs[i] = make([]byte, docSize(i))
		randomText(qr, c.missDocs[i])
	}

	// Ingested documents are new members of existing families: a stream
	// of near-duplicates is what a continuously learning index receives.
	pr := newRand(seed, streamPayloads)
	c.payloads = make([][]byte, payloadDocs)
	for i := range c.payloads {
		c.payloads[i] = mutate(pr, c.bases[i%families])
	}

	for _, set := range [][][]byte{c.hitDocs, c.missDocs, c.payloads} {
		for _, d := range set {
			c.sum.Write(d)
		}
	}
	return c
}

// member re-derives member m of family f: the base document mutated
// under a PCG stream of its own.
func (c *corpus) member(f, m int) []byte {
	return mutate(newRand(c.seed, streamMembers+uint64(f*familySize+m)), c.bases[f])
}

func recordName(i int) string {
	return "f" + strconv.Itoa(i/familySize) + "-m" + strconv.Itoa(i%familySize)
}

// record returns preloaded record i's name and data.
func (c *corpus) record(i int) (string, []byte) {
	return recordName(i), c.member(i/familySize, i%familySize)
}

// walk visits every preloaded record in order. The first walk folds
// the records into the digest, so loading and hashing share one pass.
func (c *corpus) walk(visit func(name string, data []byte)) {
	for i := 0; i < c.records; i++ {
		name, data := c.record(i)
		if !c.walked {
			c.sum.Write([]byte(name))
			c.sum.Write(data)
		}
		visit(name, data)
	}
	c.walked = true
}

// planner hands out the operation schedule: kind, arguments and
// Poisson inter-arrival gap of operation i depend only on (seed, i),
// never on timing, so two runs with one seed issue the same requests
// in the same order. Every block of mixBlock operations holds the mix
// exactly, in seeded order.
type planner struct {
	c        *corpus
	mix      mix
	rate     float64
	ops      *rand.Rand
	arrivals *rand.Rand
	next     int
	kinds    []opKind // rest of the current block
	batches  []int    // rest of the current cycle of ingest sizes
	// written are the names ingested at least deleteLag ops ago and not
	// yet picked by a delete; recent holds the newer ones. Operations
	// are released in order to a handful of connections, so an ingest
	// has long been acknowledged when the operation deleteLag places
	// after it is sent.
	written []string
	recent  [deleteLag][]string
}

func newPlanner(c *corpus, m mix, rate float64) *planner {
	return &planner{c: c, mix: m, rate: rate,
		ops: newRand(c.seed, streamOps), arrivals: newRand(c.seed, streamArrivals)}
}

// kind takes the next operation kind off the current block, dealing a
// new block when it is used up.
func (p *planner) kind() opKind {
	if len(p.kinds) == 0 {
		for k, n := range []int{opSearchHit: p.mix.hit, opSearchMiss: p.mix.miss, opIngest: p.mix.ingest, opDelete: p.mix.del} {
			for ; n > 0; n-- {
				p.kinds = append(p.kinds, opKind(k))
			}
		}
		p.ops.Shuffle(len(p.kinds), func(i, j int) { p.kinds[i], p.kinds[j] = p.kinds[j], p.kinds[i] })
	}
	k := p.kinds[len(p.kinds)-1]
	p.kinds = p.kinds[:len(p.kinds)-1]
	return k
}

// batch takes the next ingest size off a shuffled cycle of 1..maxBatch.
func (p *planner) batch() int {
	if len(p.batches) == 0 {
		p.batches = p.ops.Perm(p.mix.maxBatch)
	}
	n := p.batches[len(p.batches)-1] + 1
	p.batches = p.batches[:len(p.batches)-1]
	return n
}

// plan returns the next operation. Callers serialize.
func (p *planner) plan() op {
	i := p.next
	p.next++
	slot := i % deleteLag
	p.written = append(p.written, p.recent[slot]...)
	p.recent[slot] = nil

	o := op{index: i, kind: p.kind(), gap: time.Duration(p.arrivals.ExpFloat64() / p.rate * float64(time.Second))}
	if o.kind == opDelete && len(p.written) == 0 {
		o.kind = opIngest // nothing is old enough to delete yet
	}
	switch o.kind {
	case opSearchHit:
		o.query = p.ops.IntN(len(p.c.hitDocs))
	case opSearchMiss:
		o.query = p.ops.IntN(len(p.c.missDocs))
	case opDelete:
		j := p.ops.IntN(len(p.written))
		o.names = []string{p.written[j]}
		p.written[j] = p.written[len(p.written)-1]
		p.written = p.written[:len(p.written)-1]
	case opIngest:
		for j, n := 0, p.batch(); j < n; j++ {
			o.payloads = append(o.payloads, p.ops.IntN(len(p.c.payloads)))
			o.names = append(o.names, "w"+strconv.Itoa(i)+"-"+strconv.Itoa(j))
		}
		p.recent[slot] = o.names
	}
	return o
}

// digest is the SHA-256 over the query and payload sets, the preloaded
// corpus and the first digestOps planned operations, stamped into every
// result so two result files can be checked for equal inputs.
func (c *corpus) digest(m mix, rate float64) string {
	if !c.walked {
		c.walk(func(string, []byte) {})
	}
	h := sha256.New()
	h.Write(c.sum.Sum(nil))
	p := newPlanner(c, m, rate)
	var b [8]byte
	for i := 0; i < digestOps; i++ {
		o := p.plan()
		binary.LittleEndian.PutUint64(b[:], uint64(o.gap))
		h.Write(b[:])
		fmt.Fprintf(h, "%d %d %v %v|", o.kind, o.query, o.payloads, o.names)
	}
	return hex.EncodeToString(h.Sum(nil))
}
