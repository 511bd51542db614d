package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"switchv/internal/bugdb"
	"switchv/internal/switchv"
)

// Store is the daemon's on-disk checkpoint store. Layout under dir:
//
//	incidents.json                  fleet-wide deduped bugdb.Record list
//	targets/<name>/status.json      per-target trajectory + round cursor
//	targets/<name>/round-<NNNN>/
//	    campaign.json               CampaignMeta: config fingerprint + phase
//	    shard-<k>.json              switchv.ShardCheckpoint, one per done shard
//	    report.json                 canonical merged control-plane report
//	    dataplane.json              DataPlaneSummary
//
// Every write lands via a temp file + rename, so a crash mid-write
// leaves the previous state intact, never a torn JSON document. All
// documents are deterministic: restarting a daemon over the same store
// and fleet reproduces them byte for byte.
type Store struct {
	dir string
}

// CampaignMeta identifies one (target, round) campaign and its progress.
type CampaignMeta struct {
	Target string `json:"target"`
	Round  int    `json:"round"`
	// Config fingerprints the campaign parameters (seed, shards, budget,
	// role, entries). Resume is only sound against an identical config;
	// a mismatch discards the round's checkpoints and starts over.
	Config string `json:"config"`
	// Phase is the resume cursor: "control-plane" while shard
	// checkpoints accumulate, "data-plane" once report.json exists,
	// "done" when the round is fully recorded.
	Phase string `json:"phase"`
}

// Campaign phases, in order.
const (
	PhaseControlPlane = "control-plane"
	PhaseDataPlane    = "data-plane"
	PhaseDone         = "done"
)

// DataPlaneSummary is the deterministic projection of a data-plane
// campaign persisted per round.
type DataPlaneSummary struct {
	Entries     int                `json:"entries"`
	Goals       int                `json:"goals"`
	Covered     int                `json:"covered"`
	Unreachable int                `json:"unreachable"`
	Packets     int                `json:"packets"`
	Incidents   []switchv.Incident `json:"incidents"`
}

// TrajectoryPoint is one per-round sample of a target's coverage and
// incident history, served by the /targets API.
type TrajectoryPoint struct {
	Round          int     `json:"round"`
	Covered        int     `json:"covered"`
	Universe       int64   `json:"universe"`
	Percent        float64 `json:"percent"`
	TablesAccepted int     `json:"tables_accepted"`
	Incidents      int     `json:"incidents"`
}

// TargetHistory is a target's persisted status: how many rounds have
// completed and the coverage trajectory across them.
type TargetHistory struct {
	Name       string            `json:"name"`
	RoundsDone int               `json:"rounds_done"`
	Trajectory []TrajectoryPoint `json:"trajectory"`
}

// OpenStore opens (creating if needed) a checkpoint store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("daemon: store directory is required")
	}
	if err := os.MkdirAll(filepath.Join(dir, "targets"), 0o755); err != nil {
		return nil, fmt.Errorf("daemon: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) roundDir(target string, round int) string {
	return filepath.Join(s.dir, "targets", target, fmt.Sprintf("round-%04d", round))
}

// writeJSON atomically replaces path with the JSON rendering of v.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// writeFile atomically replaces path with data and a closing newline: it
// writes a temporary file beside path and renames it over path, so a
// reader sees the old document or the new one, never a torn one.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ErrCorrupt marks a checkpoint file that exists but does not decode —
// a torn or bit-rotted document (atomic renames rule out torn writes
// from this process, but disks, copies and crashes mid-fsync do not
// honour that contract). The scheduler treats it as a quarantine
// signal: sideline the round directory and rebuild from the previous
// good checkpoint instead of crashing the daemon.
var ErrCorrupt = errors.New("daemon: corrupt checkpoint")

// readJSON decodes path into v; missing files return os.ErrNotExist,
// undecodable ones wrap ErrCorrupt.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w %s: %v", ErrCorrupt, path, err)
	}
	return nil
}

// QuarantineRound sidelines a (target, round) checkpoint directory by
// renaming it to round-NNNN.corrupt-K (K picks the first free suffix),
// preserving the bytes for forensics while clearing the path for a
// fresh round directory. Missing directories are a no-op.
func (s *Store) QuarantineRound(target string, round int) (string, error) {
	dir := s.roundDir(target, round)
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return "", nil
	}
	for k := 0; ; k++ {
		dst := fmt.Sprintf("%s.corrupt-%d", dir, k)
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Rename(dir, dst); err != nil {
			return "", fmt.Errorf("daemon: quarantining %s: %w", dir, err)
		}
		return dst, nil
	}
}

// LoadCampaign returns the (target, round) campaign meta, or nil if the
// round has never checkpointed.
func (s *Store) LoadCampaign(target string, round int) (*CampaignMeta, error) {
	meta := &CampaignMeta{}
	err := readJSON(filepath.Join(s.roundDir(target, round), "campaign.json"), meta)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return meta, nil
}

// SaveCampaign persists the campaign meta.
func (s *Store) SaveCampaign(meta *CampaignMeta) error {
	return writeJSON(filepath.Join(s.roundDir(meta.Target, meta.Round), "campaign.json"), meta)
}

// ResetCampaign discards every checkpoint of a (target, round) —
// the config changed, so the old shards are not resumable.
func (s *Store) ResetCampaign(target string, round int) error {
	return os.RemoveAll(s.roundDir(target, round))
}

// SaveShard checkpoints one completed shard.
func (s *Store) SaveShard(target string, round, shard int, cp *switchv.ShardCheckpoint) error {
	return writeJSON(filepath.Join(s.roundDir(target, round), fmt.Sprintf("shard-%d.json", shard)), cp)
}

// LoadShards returns every checkpointed shard of a (target, round),
// ready for ParallelOptions.Resume. Missing rounds load as empty.
func (s *Store) LoadShards(target string, round int) (map[int]*switchv.ShardCheckpoint, error) {
	dir := s.roundDir(target, round)
	names, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return map[int]*switchv.ShardCheckpoint{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[int]*switchv.ShardCheckpoint{}
	for _, e := range names {
		name := e.Name()
		if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		shard, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "shard-"), ".json"))
		if err != nil {
			continue
		}
		cp := &switchv.ShardCheckpoint{}
		if err := readJSON(filepath.Join(dir, name), cp); err != nil {
			return nil, err
		}
		out[shard] = cp
	}
	return out, nil
}

// SaveReport persists the canonical merged control-plane report.
func (s *Store) SaveReport(target string, round int, rep *switchv.CanonicalReport) error {
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(s.roundDir(target, round), "report.json"), data)
}

// LoadReport returns the round's canonical report, or nil before the
// control-plane phase completes.
func (s *Store) LoadReport(target string, round int) (*switchv.CanonicalReport, error) {
	rep := &switchv.CanonicalReport{}
	err := readJSON(filepath.Join(s.roundDir(target, round), "report.json"), rep)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// SaveDataPlane persists the round's data-plane summary.
func (s *Store) SaveDataPlane(target string, round int, sum *DataPlaneSummary) error {
	return writeJSON(filepath.Join(s.roundDir(target, round), "dataplane.json"), sum)
}

// LoadDataPlane returns the round's data-plane summary, or nil if that
// phase has not completed.
func (s *Store) LoadDataPlane(target string, round int) (*DataPlaneSummary, error) {
	sum := &DataPlaneSummary{}
	err := readJSON(filepath.Join(s.roundDir(target, round), "dataplane.json"), sum)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return sum, nil
}

// LoadRecords returns the fleet-wide incident records (empty if none
// have been persisted yet).
func (s *Store) LoadRecords() ([]bugdb.Record, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "incidents.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return bugdb.DecodeRecords(data)
}

// SaveRecords persists the fleet-wide incident records.
func (s *Store) SaveRecords(records []bugdb.Record) error {
	data, err := bugdb.EncodeRecords(records)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(s.dir, "incidents.json"), data)
}

// LoadHistory returns a target's persisted status (zero value if new).
func (s *Store) LoadHistory(target string) (*TargetHistory, error) {
	h := &TargetHistory{}
	err := readJSON(filepath.Join(s.dir, "targets", target, "status.json"), h)
	if os.IsNotExist(err) {
		return &TargetHistory{Name: target}, nil
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// SaveHistory persists a target's status.
func (s *Store) SaveHistory(h *TargetHistory) error {
	return writeJSON(filepath.Join(s.dir, "targets", h.Name, "status.json"), h)
}

// Rounds lists the round numbers with checkpoints for a target, in
// ascending order. Missing targets list as empty.
func (s *Store) Rounds(target string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "targets", target))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "round-") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "round-"))
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// Targets lists the target names present in the store, sorted.
func (s *Store) Targets() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "targets"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
