package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// request is one client request. The same value drives the HTTP run and
// the in-process replay.
type request struct {
	Kind      string // "query", "invoke" or "mutate"
	Client    int
	Flock     string // flock ID the answer is checked against
	Src       string // program text (query)
	Strategy  string
	NoCache   bool // ?cache=0
	Threshold int  // the FILTER threshold the answer must satisfy
	Rel       string
	Rows      [][]string // mutate rows, columns in relation order
}

// workloadSpec describes one benchmark workload.
type workloadSpec struct {
	name    string
	engine  string // flockd -engine
	clients int
	// genArgs is the equivalent flockgen command line for the stamp.
	genArgs string
	gen     func(seed int64) *storage.Database
	// prepared are the flocks registered with /prepare before the run,
	// by flock ID.
	prepared map[string]string
	// checked maps every flock ID to its canonical program at a given
	// threshold, as the oracle evaluates it.
	checked map[string]func(t int) string
	// ingestInSetup makes set-up time cover the storage.CreateDir ingest.
	ingestInSetup bool
	// newClient returns a client's request generator.
	newClient func(db *storage.Database, seed int64, client int) func() request
	// oracle builds the independent answer checker over the base data.
	oracle func(db *storage.Database, ws *workloadSpec) (oracle, error)
}

const (
	// wordsDocs sizes words-adhoc: documents in E1's word-occurrence
	// shape (vocabulary 6x documents, mean 15 words, Zipf 1.1).
	wordsDocs = 500
	// servePatients and diskPatients size the medical workloads.
	servePatients = 3000
	diskPatients  = 4000
)

const pairsFlock = `QUERY:
answer(%[1]s) :- baskets(%[1]s,%[2]s) AND baskets(%[1]s,%[3]s) AND %[2]s < %[3]s
FILTER:
COUNT(answer.%[1]s) >= %[4]d
`

const fig3Flock = `QUERY:
answer(%[1]s) :-
    exhibits(%[1]s,%[3]s) AND
    treatments(%[1]s,%[4]s) AND
    diagnoses(%[1]s,%[2]s) AND
    NOT causes(%[2]s,%[3]s)
FILTER:
COUNT(answer.%[1]s) >= %[5]d
`

const multidiseaseFlock = `VIEWS:
allCaused(%[1]s,%[2]s) :- diagnoses(%[1]s,%[3]s) AND causes(%[3]s,%[2]s)
QUERY:
answer(%[1]s) :-
    exhibits(%[1]s,%[4]s) AND
    treatments(%[1]s,%[5]s) AND
    NOT allCaused(%[1]s,%[4]s)
FILTER:
COUNT(answer.%[1]s) >= %[6]d
`

// Alpha-renamings of the flocks' variables. Parameter names keep their
// relative order, so every variant's answer columns line up.
var (
	pairsNames = [][3]string{{"B", "$1", "$2"}, {"D", "$a", "$b"}, {"Doc", "$p", "$q"}}
	fig3Names  = [][4]string{{"P", "D", "$s", "$m"}, {"Q", "E", "$y", "$x"}, {"Pat", "Dis", "$sym", "$med"}}
	mdNames    = [][5]string{{"P", "S", "D", "$s", "$m"}, {"Q", "T", "E", "$y", "$x"}, {"Pat", "Sym", "Dis", "$sym", "$med"}}
)

func pairsSrc(v, t int) string {
	n := pairsNames[v]
	return fmt.Sprintf(pairsFlock, n[0], n[1], n[2], t)
}

func fig3Src(v, t int) string {
	n := fig3Names[v]
	return fmt.Sprintf(fig3Flock, n[0], n[1], n[2], n[3], t)
}

func mdSrc(v, t int) string {
	n := mdNames[v]
	return fmt.Sprintf(multidiseaseFlock, n[0], n[1], n[2], n[3], n[4], t)
}

// zipfPick draws from choices with Zipf(1) weights: the first choice is
// the most frequent, as a user's habitual threshold would be.
type zipfPick struct {
	z       *workload.Zipf
	choices []int
}

func newZipfPick(rng *rand.Rand, choices ...int) zipfPick {
	return zipfPick{z: workload.NewZipf(rng, len(choices), 1.0), choices: choices}
}

func (p zipfPick) next() int { return p.choices[p.z.Next()] }

var workloads = []*workloadSpec{wordsAdhoc(), medicalServe(), medicalDisk()}

func findWorkload(name string) (*workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// wordsAdhoc: the Fig. 1/2 pair-count flock asked for the first time,
// ad hoc and through its prepared handle at other thresholds, with the
// serving caches bypassed, beside a stream of new documents.
func wordsAdhoc() *workloadSpec {
	return &workloadSpec{
		name:    "words-adhoc",
		engine:  "memory",
		clients: 1,
		genArgs: fmt.Sprintf("-kind words -n %d", wordsDocs),
		gen: func(seed int64) *storage.Database {
			return workload.Words(wordsDocs, 6*wordsDocs, 15, seed)
		},
		prepared: map[string]string{"pairs": pairsSrc(0, 20)},
		checked: map[string]func(int) string{
			"pairs": func(t int) string { return pairsSrc(0, t) },
		},
		newClient: func(db *storage.Database, seed int64, client int) func() request {
			rng := rand.New(rand.NewSource(seed*31 + int64(client)))
			thr := newZipfPick(rng, 20, 25, 15, 30, 40)
			words := workload.NewZipf(rng, 6*wordsDocs, 1.1)
			doc := 1_000_000 + 100_000*client
			i := 0
			return func() request {
				defer func() { i++ }()
				switch i % 4 {
				case 0:
					t := thr.next()
					return request{Kind: "query", Client: client, Flock: "pairs", Src: pairsSrc(rng.Intn(len(pairsNames)), t),
						Strategy: "direct", NoCache: true, Threshold: t}
				case 1:
					return request{Kind: "invoke", Client: client, Flock: "pairs", Strategy: "direct", NoCache: true, Threshold: thr.next()}
				default:
					// Two new documents per cycle, each a few distinct
					// popular words.
					doc++
					seen := map[int]bool{}
					var rows [][]string
					for len(rows) < 4 {
						w := words.Next()
						if !seen[w] {
							seen[w] = true
							rows = append(rows, []string{strconv.Itoa(doc), strconv.Itoa(w)})
						}
					}
					return request{Kind: "mutate", Client: client, Rel: "baskets", Rows: rows}
				}
			}
		},
		oracle: newAprioriOracle,
	}
}

// medicalServe: a serving mix over prepared Fig. 3 and multi-disease
// flocks, mostly re-asked at Zipf-drawn thresholds, with ad hoc renamed
// variants and a trickle of writes that make the next requests cold.
func medicalServe() *workloadSpec {
	return &workloadSpec{
		name:    "medical-serve",
		engine:  "memory",
		clients: 2,
		genArgs: fmt.Sprintf("-kind medical -n %d", servePatients),
		gen: func(seed int64) *storage.Database {
			return workload.Medical(workload.DefaultMedical(servePatients, seed))
		},
		prepared: map[string]string{"fig3": fig3Src(0, 20), "md": mdSrc(0, 20)},
		checked: map[string]func(int) string{
			"fig3": func(t int) string { return fig3Src(0, t) },
			"md":   func(t int) string { return mdSrc(0, t) },
		},
		newClient: func(db *storage.Database, seed int64, client int) func() request {
			rng := rand.New(rand.NewSource(seed*31 + int64(client)))
			thr := newZipfPick(rng, 20, 10, 30, 15, 40, 5)
			pool := exhibitPool(db, seed, client, 2)
			strategies := []string{"direct", "static", "dynamic"}
			return func() request {
				r := rng.Float64()
				flock := "fig3"
				if rng.Float64() < 0.15 {
					flock = "md"
				}
				t := thr.next()
				switch {
				case r < 0.80:
					// Prepared flocks run mostly direct, whose warm hits skip
					// the plan; a sixth run the static plan.
					strategy := "direct"
					if rng.Float64() < 1.0/6 {
						strategy = "static"
					}
					return request{Kind: "invoke", Client: client, Flock: flock, Strategy: strategy, Threshold: t}
				case r < 0.94:
					v := rng.Intn(len(fig3Names))
					src := fig3Src(v, t)
					if flock == "md" {
						src = mdSrc(v, t)
					}
					return request{Kind: "query", Client: client, Flock: flock, Src: src, Strategy: strategies[rng.Intn(3)], Threshold: t}
				default:
					return request{Kind: "mutate", Client: client, Rel: "exhibits", Rows: pool.take(2)}
				}
			}
		},
		oracle: newLegacyOracle,
	}
}

// medicalDisk: the disk engine and the durable write path. Each cycle
// asks the Fig. 3 flock ad hoc, re-asks the prepared one at another
// threshold, and appends two batches of exhibits, which makes the next
// cycle cold.
func medicalDisk() *workloadSpec {
	return &workloadSpec{
		name:    "medical-disk",
		engine:  "disk",
		clients: 1,
		genArgs: fmt.Sprintf("-kind medical -n %d", diskPatients),
		gen: func(seed int64) *storage.Database {
			return workload.Medical(workload.DefaultMedical(diskPatients, seed))
		},
		prepared: map[string]string{"fig3": fig3Src(0, 20)},
		checked: map[string]func(int) string{
			"fig3": func(t int) string { return fig3Src(0, t) },
		},
		ingestInSetup: true,
		newClient: func(db *storage.Database, seed int64, client int) func() request {
			rng := rand.New(rand.NewSource(seed*31 + int64(client)))
			thr := newZipfPick(rng, 20, 10, 30, 15, 40, 5)
			pool := exhibitPool(db, seed, client, 1)
			i := 0
			return func() request {
				defer func() { i++ }()
				switch i % 4 {
				case 0:
					return request{Kind: "query", Client: client, Flock: "fig3", Src: fig3Src(rng.Intn(len(fig3Names)), 20),
						Strategy: "static", Threshold: 20}
				case 1:
					return request{Kind: "invoke", Client: client, Flock: "fig3", Strategy: "static", Threshold: thr.next()}
				default:
					return request{Kind: "mutate", Client: client, Rel: "exhibits", Rows: pool.take(5)}
				}
			}
		},
		oracle: newLegacyOracle,
	}
}

// rowPool hands out exhibits rows no other client and no base tuple
// holds, so every acknowledged mutation inserts all its rows whatever
// order the clients' writes interleave in.
type rowPool struct {
	rows [][]string
	next int
}

// take returns the next n rows. Past the end of the pool it repeats
// rows, which the mutate check then reports as failed inserts.
func (p *rowPool) take(n int) [][]string {
	var out [][]string
	for len(out) < n {
		out = append(out, p.rows[p.next%len(p.rows)])
		p.next++
	}
	return out
}

// exhibitPool builds client's share of fresh exhibits rows: existing
// patients taking a planted side-effect medicine gain its symptom, or a
// symptom at random, so answers move as writes land. The candidates are
// shuffled by seed and dealt round-robin to the clients.
func exhibitPool(db *storage.Database, seed int64, client, clients int) *rowPool {
	have := make(map[string]bool)
	for _, t := range db.MustRelation("exhibits").Tuples() {
		have[t[0].String()+","+t[1].String()] = true
	}
	var cands [][]string
	add := func(p, s string) {
		if !have[p+","+s] {
			have[p+","+s] = true
			cands = append(cands, []string{p, s})
		}
	}
	for _, t := range db.MustRelation("treatments").Tuples() {
		p := t[0].String()
		switch t[1].String() {
		case "m3":
			add(p, "s190")
		case "m7":
			add(p, "s195")
		}
		add(p, "s"+strconv.FormatInt(t[0].AsInt()%200, 10))
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i][0]+","+cands[i][1] < cands[j][0]+","+cands[j][1]
	})
	rng := rand.New(rand.NewSource(seed + 7))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	p := &rowPool{}
	for i := client; i < len(cands); i += clients {
		p.rows = append(p.rows, cands[i])
	}
	return p
}
