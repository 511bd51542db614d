package daemon

import (
	"errors"
	"fmt"
	"time"

	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/internal/switchv"
	"switchv/internal/workload"
)

// configFingerprint renders the campaign parameters a checkpoint is
// only valid against. A daemon restarted with a different seed, shard
// split or budget must not merge the old checkpoints — the engine's
// determinism contract is stated per (seed, shards, budget) tuple.
func (d *Daemon) configFingerprint(t Target) string {
	return fmt.Sprintf("seed=%d shards=%d requests=%d updates=%d entries=%d role=%s",
		d.cfg.Seed, d.cfg.Shards, d.cfg.Requests, d.cfg.Updates, d.cfg.Entries, t.Role)
}

// runTargetRound drives one target through one validation round,
// recovering from corrupt checkpoints: when any of the round's
// documents fails to decode (ErrCorrupt), the round directory is
// quarantined — renamed aside, bytes preserved for forensics — and the
// round re-runs from the previous good state instead of wedging the
// daemon on a bad file forever.
func (d *Daemon) runTargetRound(t Target, round int) roundOutcome {
	out := d.runTargetRoundOnce(t, round)
	if out.err != nil && errors.Is(out.err, ErrCorrupt) {
		dst, qerr := d.store.QuarantineRound(t.Name, round)
		if qerr != nil {
			out.err = fmt.Errorf("%v (and quarantining the round failed: %v)", out.err, qerr)
			return out
		}
		d.cfg.Logf("daemon: target %s round %d: %v; quarantined to %s, re-running the round",
			t.Name, round, out.err, dst)
		out = d.runTargetRoundOnce(t, round)
	}
	return out
}

// runTargetRoundOnce drives one target through one validation round:
// control-plane campaign (checkpointed per shard, resumable), then
// data-plane campaign, then history update. Transport flaps are ridden
// out with backoff + resume up to FlapRetries times.
func (d *Daemon) runTargetRoundOnce(t Target, round int) roundOutcome {
	out := roundOutcome{target: t.Name, round: round}
	info := d.infos[t.Role]
	fp := d.configFingerprint(t)

	meta, err := d.store.LoadCampaign(t.Name, round)
	if err != nil {
		out.err = err
		return out
	}
	if meta != nil && meta.Config != fp {
		d.cfg.Logf("daemon: target %s round %d: config changed, discarding checkpoints", t.Name, round)
		if err := d.store.ResetCampaign(t.Name, round); err != nil {
			out.err = err
			return out
		}
		meta = nil
	}
	if meta == nil {
		meta = &CampaignMeta{Target: t.Name, Round: round, Config: fp, Phase: PhaseControlPlane}
		if err := d.store.SaveCampaign(meta); err != nil {
			out.err = err
			return out
		}
	}

	// Phase 1: control plane. Skipped entirely when a previous process
	// already merged this round's report.
	var report *switchv.CanonicalReport
	if meta.Phase == PhaseControlPlane {
		d.setPhase(t.Name, round, PhaseControlPlane)
		report, err = d.runControlPlane(t, round, info)
		if err != nil {
			out.err = err
			return out
		}
		if err := d.store.SaveReport(t.Name, round, report); err != nil {
			out.err = err
			return out
		}
		meta.Phase = PhaseDataPlane
		if err := d.store.SaveCampaign(meta); err != nil {
			out.err = err
			return out
		}
	} else {
		report, err = d.store.LoadReport(t.Name, round)
		if err != nil {
			out.err = err
			return out
		}
		if report == nil {
			// A meta past control-plane without a report is a torn store;
			// restart the round from scratch.
			if err := d.store.ResetCampaign(t.Name, round); err == nil {
				return d.runTargetRound(t, round)
			}
			out.err = fmt.Errorf("daemon: target %s round %d: checkpoint store lost report.json", t.Name, round)
			return out
		}
	}

	// Phase 2: data plane.
	var dp *DataPlaneSummary
	if meta.Phase == PhaseDataPlane {
		d.setPhase(t.Name, round, PhaseDataPlane)
		dp, err = d.runDataPlane(t, round, info)
		if err != nil {
			out.err = err
			return out
		}
		if err := d.store.SaveDataPlane(t.Name, round, dp); err != nil {
			out.err = err
			return out
		}
		meta.Phase = PhaseDone
		if err := d.store.SaveCampaign(meta); err != nil {
			out.err = err
			return out
		}
	} else {
		out.alreadyRecorded = true
		dp, err = d.store.LoadDataPlane(t.Name, round)
		if err != nil || dp == nil {
			out.err = fmt.Errorf("daemon: target %s round %d: checkpoint store lost dataplane.json", t.Name, round)
			return out
		}
	}

	out.incidents = append(out.incidents, report.Incidents...)
	out.incidents = append(out.incidents, dp.Incidents...)

	// Advance the persisted history and the live status.
	hist, err := d.store.LoadHistory(t.Name)
	if err != nil {
		out.err = err
		return out
	}
	if hist.RoundsDone <= round {
		hist.Name = t.Name
		hist.RoundsDone = round + 1
		point := TrajectoryPoint{
			Round:     round,
			Incidents: len(out.incidents),
		}
		if report.Coverage != nil {
			point.Covered = report.Coverage.CoveredInUniverse()
			point.Universe = report.Coverage.Universe
			point.Percent = report.Coverage.Percent()
			point.TablesAccepted = len(report.Coverage.TablesAccepted())
		}
		hist.Trajectory = append(hist.Trajectory, point)
		if err := d.store.SaveHistory(hist); err != nil {
			out.err = err
			return out
		}
	}
	d.mu.Lock()
	st := d.states[t.Name]
	st.RoundsDone = hist.RoundsDone
	st.Trajectory = hist.Trajectory
	st.Phase = PhaseDone
	d.mu.Unlock()
	d.cfg.Logf("daemon: target %s round %d done: %d incidents", t.Name, round, len(out.incidents))
	return out
}

// runControlPlane runs the round's sharded fuzzing campaign, resuming
// from the store's shard checkpoints, persisting each fresh shard as it
// completes, and riding out transport flaps by reconnecting and
// resuming. The returned canonical report is a pure function of
// (model, round seed, shard count, budget) — identical whether the
// campaign ran uninterrupted or across any number of resumes.
func (d *Daemon) runControlPlane(t Target, round int, info *p4info.Info) (*switchv.CanonicalReport, error) {
	roundSeed := fuzzer.DeriveSeed(d.cfg.Seed, round)
	for attempt := 0; ; attempt++ {
		resume, err := d.store.LoadShards(t.Name, round)
		if err != nil {
			return nil, err
		}

		// The last attempt runs with quarantine semantics: shards whose
		// stacks still fail after every flap retry are sidelined (recorded
		// in the report with their seeds) and the round completes over the
		// healthy shards — graceful degradation instead of losing the
		// whole round to one dead switch.
		quarantine := attempt >= d.cfg.FlapRetries
		rep, err := switchv.RunParallelCampaign(info, switchv.ParallelOptions{
			Workers:    len(t.Addrs),
			Shards:     d.cfg.Shards,
			Fuzz:       fuzzer.Options{Seed: roundSeed, NumRequests: d.cfg.Requests, UpdatesPerRequest: d.cfg.Updates},
			Factory:    d.stackFactory(t, info),
			Precheck:   d.cfg.Precheck,
			Resume:     resume,
			Quarantine: quarantine,
			OnShard: func(shard int, cp *switchv.ShardCheckpoint) error {
				if d.stopping() {
					return errStopped
				}
				// A shard whose read-backs died mid-flight observed a
				// flapping transport, not the switch's behavior; drop it
				// and re-run after the target settles — except on the
				// final degraded attempt, which takes what it can get.
				if !quarantine && flapped(cp.Report.Incidents) {
					return errFlap
				}
				if err := d.store.SaveShard(t.Name, round, shard, cp); err != nil {
					return err
				}
				if d.cfg.ShardHook != nil {
					if err := d.cfg.ShardHook(t.Name, round, shard); err != nil {
						return fmt.Errorf("%w: %v", errStopped, err)
					}
				}
				return nil
			},
		})
		if err == nil {
			if n := len(rep.Quarantined); n > 0 {
				d.cfg.Logf("daemon: target %s round %d: completed degraded with %d quarantined shard(s)",
					t.Name, round, n)
				d.mu.Lock()
				if st := d.states[t.Name]; st != nil {
					st.Quarantined += n
				}
				d.mu.Unlock()
			}
			return rep.Canon(), nil
		}
		// The engine wraps OnShard's cause into ErrCampaignStopped: a
		// flap retries below, any other stop ends the round.
		if errors.Is(err, switchv.ErrCampaignStopped) {
			if !errors.Is(err, errFlap) {
				return nil, err
			}
			err = errFlap
		}
		if d.stopping() {
			return nil, errStopped
		}
		if attempt >= d.cfg.FlapRetries {
			return nil, fmt.Errorf("daemon: target %s round %d: campaign failed after %d attempts: %w",
				t.Name, round, attempt+1, err)
		}
		d.noteRetry(t.Name)
		d.cfg.Logf("daemon: target %s round %d: %v; backing off and resuming (attempt %d/%d)",
			t.Name, round, err, attempt+1, d.cfg.FlapRetries)
		d.sleep(d.cfg.Backoff.Delay(attempt + 1))
	}
}

// sleep waits for dur or until Stop, via the Backoff.Sleep hook when
// one is configured (tests replace it to run instantly).
func (d *Daemon) sleep(dur time.Duration) {
	if d.cfg.Backoff.Sleep != nil {
		d.cfg.Backoff.Sleep(dur)
		return
	}
	select {
	case <-time.After(dur): //detlint:allow timeafter — retry backoff; tests inject Backoff.Sleep instead
	case <-d.stopCh:
	}
}

// flapped reports whether a shard report contains transport-failure
// incidents (dead read-backs), the signature of a target restarting
// underneath the campaign.
func flapped(incidents []switchv.Incident) bool {
	for _, inc := range incidents {
		if inc.Kind == "read-failed" {
			return true
		}
	}
	return false
}

// stackFactory builds per-shard stacks over the target's address pool.
// Addresses are borrowed exclusively (a shard owns its switch while
// running), dialed with reconnect backoff, and the switch is wiped
// (switchv.Harness.Wipe) before the shard fuzzes — shards sharing one
// physical switch must each start from clean state, since pushing the
// pipeline does not clear table entries.
func (d *Daemon) stackFactory(t Target, info *p4info.Info) switchv.StackFactory {
	pool := make(chan string, len(t.Addrs))
	for _, addr := range t.Addrs {
		pool <- addr
	}
	return func(shard int) (p4rt.Device, func(), error) {
		addr := <-pool
		cli, dev, err := d.dial(addr)
		if err != nil {
			pool <- addr
			return nil, nil, err
		}
		release := func() {
			cli.Close()
			pool <- addr
		}
		h := switchv.New(info, dev, nil)
		if err := h.PushPipeline(); err != nil {
			release()
			return nil, nil, fmt.Errorf("daemon: pushing pipeline: %w", err)
		}
		if err := h.Wipe(); err != nil {
			release()
			return nil, nil, err
		}
		return dev, release, nil
	}
}

// stackDevice is what a daemon stack drives: the P4Runtime device and
// its frame injection.
type stackDevice interface {
	p4rt.Device
	switchv.DataPlane
}

// dial connects to a target address the way every daemon stack does:
// with reconnect backoff and the RPC timeout, and under Harden behind a
// self-healing stack — transparent in-RPC retry over redials
// (idempotent via session replay), plus warm-restart recovery wrapping
// the whole client. The wrapper sits below the harness, so the pipeline
// push is recorded for replay. The caller closes the returned client.
func (d *Daemon) dial(addr string) (*p4rt.Client, stackDevice, error) {
	cli, err := p4rt.Reconnect(addr, d.cfg.Backoff)
	if err != nil {
		return nil, nil, err
	}
	if d.cfg.RPCTimeout > 0 {
		cli.SetTimeout(d.cfg.RPCTimeout)
	}
	if !d.cfg.Harden {
		return cli, cli, nil
	}
	cli.SetRedialAddr(addr)
	cli.SetRetry(d.cfg.Backoff)
	return cli, switchv.NewSelfHealing(cli), nil
}

// runDataPlane runs the round's symbolic data-plane campaign over one
// exclusive connection. Dial failures retry with backoff; campaign
// incidents (including a switch whose state cannot be read) are
// findings and persist as-is.
func (d *Daemon) runDataPlane(t Target, round int, info *p4info.Info) (*DataPlaneSummary, error) {
	roundSeed := fuzzer.DeriveSeed(d.cfg.Seed, round)
	entries := workload.MustEntries(d.progs[t.Role], d.cfg.Entries, roundSeed)
	for attempt := 0; ; attempt++ {
		if d.stopping() {
			return nil, errStopped
		}
		cli, dev, err := d.dial(t.Addrs[0])
		if err != nil {
			if attempt >= d.cfg.FlapRetries {
				return nil, fmt.Errorf("daemon: target %s round %d: data plane: %w", t.Name, round, err)
			}
			d.noteRetry(t.Name)
			d.sleep(d.cfg.Backoff.Delay(attempt + 1))
			continue
		}
		h := switchv.New(info, dev, dev)
		h.Precheck = d.cfg.Precheck
		if err := h.PushPipeline(); err != nil {
			cli.Close()
			return nil, fmt.Errorf("daemon: target %s round %d: pushing pipeline: %w", t.Name, round, err)
		}
		rep, err := h.RunDataPlane(entries, switchv.DataPlaneOptions{})
		cli.Close()
		if err != nil {
			return nil, fmt.Errorf("daemon: target %s round %d: data plane: %w", t.Name, round, err)
		}
		return &DataPlaneSummary{
			Entries:     rep.Entries,
			Goals:       rep.Goals,
			Covered:     rep.Covered,
			Unreachable: rep.Unreachable,
			Packets:     rep.Packets,
			Incidents:   rep.Incidents,
		}, nil
	}
}
