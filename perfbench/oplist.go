package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/campaign"
	"safemem/internal/fleet"
)

// Every op list is a pure function of the workload seed, drawn from a
// fixed universe of inputs whose outputs digests.json records, so any seed
// can be checked.

// appNames is the apps workload's app set, fixed here so a registry
// reorder cannot change the op list.
var appNames = []string{"gzip", "tar", "squid1", "squid2", "proftpd", "ypserv1", "ypserv2"}

// appTools are the monitoring configurations of the apps workload.
var appTools = []bench.Tool{bench.ToolNone, bench.ToolSafeMemBoth, bench.ToolSample}

const (
	appSeedUniverse = 8 // app workload seeds 1..8
	appSeedsPerList = 2
)

// appOp is one bench.Run.
type appOp struct {
	App  string
	Tool bench.Tool
	Seed int64
}

func (o appOp) key() string { return fmt.Sprintf("%s/%s/%d", o.App, o.Tool, o.Seed) }

// appsOps is one cycle of the apps workload: every app under every tool
// for two app seeds chosen by the workload seed, in a seeded order.
func appsOps(seed int64) []appOp {
	r := rand.New(rand.NewSource(seed))
	first := r.Intn(appSeedUniverse)
	var ops []appOp
	for k := 0; k < appSeedsPerList; k++ {
		s := int64((first+k*3)%appSeedUniverse) + 1
		for _, a := range appNames {
			for _, t := range appTools {
				ops = append(ops, appOp{a, t, s})
			}
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// The campaign workload runs campaign.Run over consecutive base seeds. A
// cycle is the whole universe, rotated to start at the workload seed, so
// every seed measures the same work.
const (
	campaignUniverse = 32 // base seeds 0..31
	campaignSeeds    = 64
	campaignShards   = 2
)

// campaignTools are the judged configurations of every campaign op.
var campaignTools = []campaign.ToolConfig{campaign.CfgML, campaign.CfgMC, campaign.CfgBoth, campaign.CfgSample}

func campaignConfig(base uint64) campaign.Config {
	return campaign.Config{Seeds: campaignSeeds, Shards: campaignShards, BaseSeed: base, Tools: campaignTools}
}

// campaignOps is one cycle of base seeds, consecutive from the workload
// seed.
func campaignOps(seed int64) []uint64 {
	start := uint64(seed) % campaignUniverse
	ops := make([]uint64, campaignUniverse)
	for i := range ops {
		ops[i] = (start + uint64(i)) % campaignUniverse
	}
	return ops
}

// The serve workload submits scenario jobs drawn from a universe of job
// specs: tools cycle {none, ml, mc, both, sample}, and every fourth job
// runs on flaky DIMMs with the `make storm` settings. A cycle is the whole
// universe, rotated to start at the workload seed.
const (
	jobUniverse = 2000
	jobSeedBase = 0x5e7e
)

var jobTools = []string{"none", "ml", "mc", "both", "sample"}

// jobSpec is universe entry j.
func jobSpec(j int) fleet.JobSpec {
	s := fleet.JobSpec{Kind: fleet.KindScenario, Seed: campaign.SubSeed(jobSeedBase, j), Tool: jobTools[j%len(jobTools)]}
	if j%4 == 3 {
		s.FaultRate, s.Storm, s.Retire = 40, true, true
	}
	return s
}

// serveOps is one cycle of universe indices, consecutive from the
// workload seed.
func serveOps(seed int64) []int {
	start := int(uint64(seed) % jobUniverse)
	ops := make([]int, jobUniverse)
	for i := range ops {
		ops[i] = (start + i) % jobUniverse
	}
	return ops
}

// appDigest is the deterministic output of one bench.Run.
type appDigest struct {
	Cycles  uint64 `json:"cycles"`
	Instrs  uint64 `json:"instrs"`
	Reports int    `json:"reports"`
}

// digests holds the expected output of every input in the universes.
type digests struct {
	Apps     map[string]appDigest `json:"apps"`     // appOp.key() → output
	Campaign []string             `json:"campaign"` // base seed → sha256 of the summary JSON
	Serve    []string             `json:"serve"`    // universe index → fnv64a of the result bytes
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if len(d.Campaign) != campaignUniverse || len(d.Serve) != jobUniverse ||
		len(d.Apps) != appSeedUniverse*len(appNames)*len(appTools) {
		return nil, fmt.Errorf("digests.json does not cover the op universes; run with -regen-digests")
	}
	return &d, nil
}

func appOutput(r *bench.Result) appDigest {
	return appDigest{Cycles: uint64(r.Cycles), Instrs: r.Instrs, Reports: len(r.SafeMem)}
}

// checkApp reports whether one bench.Run produced its recorded output.
func (d *digests) checkApp(op appOp, r *bench.Result, err error) error {
	if err != nil {
		return err
	}
	if r.Err != nil {
		return fmt.Errorf("%s: run error: %v", op.key(), r.Err)
	}
	if got, want := appOutput(r), d.Apps[op.key()]; got != want {
		return fmt.Errorf("%s: output %+v, want %+v", op.key(), got, want)
	}
	return nil
}

func summaryDigest(s *campaign.Summary) (string, error) {
	b, err := s.JSON()
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// checkCampaign reports whether one campaign.Run produced its recorded
// summary.
func (d *digests) checkCampaign(base uint64, s *campaign.Summary, err error) error {
	if err != nil {
		return err
	}
	got, err := summaryDigest(s)
	if err != nil {
		return err
	}
	if want := d.Campaign[base]; got != want {
		return fmt.Errorf("campaign base seed %d: summary digest %s, want %s", base, got, want)
	}
	return nil
}

func resultDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkJob reports whether a job for universe entry j finished done with
// its recorded result bytes.
func (d *digests) checkJob(j int, state string, result []byte) error {
	if state != "done" {
		return fmt.Errorf("job %d: state %q", j, state)
	}
	if got, want := resultDigest(result), d.Serve[j]; got != want {
		return fmt.Errorf("job %d: result digest %s, want %s", j, got, want)
	}
	return nil
}

// regenDigests recomputes every digest and writes digests.json to path.
func regenDigests(o options, path string) error {
	d := digests{Apps: map[string]appDigest{}}
	for s := int64(1); s <= appSeedUniverse; s++ {
		for _, a := range appNames {
			for _, t := range appTools {
				op := appOp{a, t, s}
				r, err := bench.Run(a, t, apps.Config{Scale: 1, Seed: s})
				if err != nil {
					return err
				}
				if r.Err != nil {
					return fmt.Errorf("%s: %v", op.key(), r.Err)
				}
				d.Apps[op.key()] = appOutput(r)
			}
		}
	}
	for b := uint64(0); b < campaignUniverse; b++ {
		s, err := campaign.Run(campaignConfig(b))
		if err != nil {
			return err
		}
		h, err := summaryDigest(s)
		if err != nil {
			return err
		}
		d.Campaign = append(d.Campaign, h)
	}
	serve, err := serveDigests(o)
	if err != nil {
		return err
	}
	d.Serve = serve
	b, err := json.MarshalIndent(&d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
