// Command nwsctl queries a running distributed NWS deployment:
//
//	nwsctl -nameserver localhost:8090 list
//	nwsctl -memory localhost:8091 series
//	nwsctl -memory localhost:8091 fetch thing1/cpu/nws_hybrid [maxPoints]
//	nwsctl -forecaster localhost:8092 forecast thing1/cpu/nws_hybrid
//	nwsctl -forecaster localhost:8092 subscribe thing1/cpu/nws_hybrid [n]
//	nwsctl -nameserver localhost:8090 ping
//	nwsctl -memory localhost:8091,localhost:8092,localhost:8093 health
//	nwsctl -nameserver localhost:8090 health
//	nwsctl -nameserver localhost:8090 members
//	nwsctl -nameserver localhost:8090 ring thing1/cpu/nws_hybrid
//	nwsctl -memory localhost:8091,localhost:8092 repair thing1/cpu/nws_hybrid
//
// health pings every memory replica — the comma-separated -memory list, or
// what -nameserver knows: every active memory member of the partitioned
// cluster when it publishes one, else every endpoint of every memory
// registration — and reports each as healthy or down, then compares per-series digest
// frontiers across the replicas that answered and prints each one's worst
// frontier lag (how far its newest point trails the group's best) with its
// behind/missing series counts. Replicas that predate the digest op are
// reported as such, not failed. On a partitioned cluster each series is
// compared only across its ring owners, so a shard is never "missing" a
// series it does not own. It exits non-zero when fewer than a majority answer, i.e. when the group
// has lost its write quorum.
//
// repair <series> runs one client-driven repair pass: it collects the
// series' digest from every replica (on a partitioned cluster: from the
// series' ring owners), picks the most complete copy, and backfills the
// laggards from it. It exits non-zero unless at least a
// majority of replicas end the pass bit-identical to the best copy.
//
// members prints the partitioned cluster's membership view (epoch, ring
// geometry, every lease with state and shard share) and exits non-zero when
// fewer active memory members remain than the replication factor — the
// cluster analogue of losing write quorum. ring <series> resolves which
// members own a series key under the current view.
//
// subscribe watches a series on the forecaster's push plane: it prints the
// acknowledgement's current forecast, then one line per server push as the
// series' forecast changes. With a count n it exits after n pushes;
// otherwise it runs until the subscription ends (server gone, or the series
// moved to another shard during a rebalance) or the process is interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwsctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwsctl", flag.ContinueOnError)
	nameserver := fs.String("nameserver", "", "name server address")
	memory := fs.String("memory", "", "memory server address")
	forecaster := fs.String("forecaster", "", "forecaster address")
	tenant := fs.String("tenant", "", "tenant ID to attribute requests to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := fs.Args()
	if len(cmd) == 0 {
		return fmt.Errorf("no command; try: list | series | fetch <key> | forecast <key> | ping | health")
	}

	c := nwsnet.NewClientOptions(nwsnet.ClientOptions{Tenant: *tenant})
	switch cmd[0] {
	case "ping":
		for _, addr := range []string{*nameserver, *memory, *forecaster} {
			if addr == "" {
				continue
			}
			if err := c.PingCtx(context.Background(), addr); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s: ok\n", addr)
		}
		return nil
	case "health":
		addrs, view, err := memoryAddrs(c, *memory, *nameserver, "")
		if err != nil {
			return err
		}
		healthy := 0
		var up []string
		for _, addr := range addrs {
			if err := c.PingCtx(context.Background(), addr); err != nil {
				fmt.Fprintf(out, "%-24s down (%v)\n", addr, err)
				continue
			}
			healthy++
			up = append(up, addr)
			fmt.Fprintf(out, "%-24s healthy\n", addr)
		}
		if len(up) > 1 {
			frontierLag(c, up, view, out)
		}
		fmt.Fprintf(out, "%d/%d replicas healthy\n", healthy, len(addrs))
		if healthy < len(addrs)/2+1 {
			return fmt.Errorf("write quorum lost: %d of %d replicas healthy", healthy, len(addrs))
		}
		return nil
	case "repair":
		if len(cmd) < 2 {
			return fmt.Errorf("repair needs a series key and -memory or -nameserver")
		}
		addrs, _, err := memoryAddrs(c, *memory, *nameserver, cmd[1])
		if err != nil {
			return err
		}
		return repairSeries(c, addrs, cmd[1], out)
	case "list":
		if *nameserver == "" {
			return fmt.Errorf("list needs -nameserver")
		}
		regs, err := c.ListCtx(context.Background(), *nameserver, "")
		if err != nil {
			return err
		}
		for _, r := range regs {
			fmt.Fprintf(out, "%-24s %-12s %s\n", r.Name, r.Kind, r.Addr)
		}
		return nil
	case "series":
		if *memory == "" {
			return fmt.Errorf("series needs -memory")
		}
		names, err := c.SeriesCtx(context.Background(), *memory)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(out, n)
		}
		return nil
	case "fetch":
		if *memory == "" || len(cmd) < 2 {
			return fmt.Errorf("fetch needs -memory and a series key")
		}
		max := 0
		if len(cmd) >= 3 {
			var err error
			if max, err = strconv.Atoi(cmd[2]); err != nil {
				return fmt.Errorf("bad max %q: %w", cmd[2], err)
			}
		}
		pts, err := c.FetchCtx(context.Background(), *memory, cmd[1], 0, 0, max)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Fprintf(out, "%.3f %.6f\n", p[0], p[1])
		}
		return nil
	case "forecast":
		if *forecaster == "" || len(cmd) < 2 {
			return fmt.Errorf("forecast needs -forecaster and a series key")
		}
		f, err := c.ForecastCtx(context.Background(), *forecaster, cmd[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "forecast %.4f (method %s, MAE %.4f over %d measurements)\n",
			f.Value, f.Method, f.MAE, f.N)
		return nil
	case "subscribe":
		if *forecaster == "" || len(cmd) < 2 {
			return fmt.Errorf("subscribe needs -forecaster and a series key")
		}
		limit := 0
		if len(cmd) >= 3 {
			var err error
			if limit, err = strconv.Atoi(cmd[2]); err != nil {
				return fmt.Errorf("bad count %q: %w", cmd[2], err)
			}
		}
		return subscribe(*forecaster, *tenant, cmd[1], limit, out)
	case "members":
		if *nameserver == "" {
			return fmt.Errorf("members needs -nameserver")
		}
		return members(c, *nameserver, out)
	case "ring":
		if *nameserver == "" || len(cmd) < 2 {
			return fmt.Errorf("ring needs -nameserver and a series key")
		}
		return ringOwners(c, *nameserver, cmd[1], out)
	default:
		return fmt.Errorf("unknown command %q", cmd[0])
	}
}

// memoryAddrs resolves the replica set: the comma-separated -memory list;
// else, when the -nameserver registry publishes a cluster view with active
// memory members, those members — key's ring owners, or all of them when key
// is "" — and the view itself; else every endpoint of every legacy memory
// registration. The view is nil unless the addresses came from it.
func memoryAddrs(c *nwsnet.Client, memory, nameserver, key string) ([]string, *cluster.View, error) {
	var addrs []string
	switch {
	case memory != "":
		for _, a := range strings.Split(memory, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	case nameserver != "":
		if v, err := c.FetchViewCtx(context.Background(), nameserver, 0); err == nil && v != nil {
			members := v.Active(string(nwsnet.KindMemory))
			if key != "" && len(members) > 0 {
				members = v.Owners(string(nwsnet.KindMemory), key)
			}
			for _, m := range members {
				addrs = append(addrs, m.Endpoints()...)
			}
			if len(addrs) > 0 {
				return addrs, v, nil
			}
		}
		regs, err := c.ListCtx(context.Background(), nameserver, nwsnet.KindMemory)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range regs {
			addrs = append(addrs, r.Endpoints()...)
		}
	default:
		return nil, nil, fmt.Errorf("need -memory or -nameserver")
	}
	if len(addrs) == 0 {
		return nil, nil, fmt.Errorf("no memory replicas to check")
	}
	return addrs, nil, nil
}

// frontierLag compares per-series digest frontiers across the replicas that
// answered and prints each replica's worst lag behind the group's best. With
// a cluster view each series is compared only across its ring owners: a
// non-owner's copy, or its lack of one, counts as neither behind nor
// missing. A replica whose server predates the digest op is reported, not
// failed.
func frontierLag(c *nwsnet.Client, addrs []string, v *cluster.View, out io.Writer) {
	owners := map[string][]string{} // series -> owner endpoints, resolved once
	owns := func(addr, series string) bool {
		if v == nil {
			return true
		}
		eps, ok := owners[series]
		if !ok {
			for _, m := range v.Owners(string(nwsnet.KindMemory), series) {
				eps = append(eps, m.Endpoints()...)
			}
			owners[series] = eps
		}
		return slices.Contains(eps, addr)
	}
	digests := make(map[string]map[string]nwsnet.SeriesDigest, len(addrs))
	best := map[string]float64{}
	var supported []string
	for _, addr := range addrs {
		ds, err := c.DigestsCtx(context.Background(), addr, "")
		if err != nil {
			fmt.Fprintf(out, "%-24s digests unavailable (%v)\n", addr, err)
			continue
		}
		supported = append(supported, addr)
		bySeries := make(map[string]nwsnet.SeriesDigest, len(ds))
		for _, d := range ds {
			bySeries[d.Series] = d
			if owns(addr, d.Series) && d.Frontier > best[d.Series] {
				best[d.Series] = d.Frontier
			}
		}
		digests[addr] = bySeries
	}
	if len(supported) < 2 || len(best) == 0 {
		return
	}
	fmt.Fprintln(out, "frontier lag (worst series, vs the group's best frontier):")
	for _, addr := range supported {
		bySeries := digests[addr]
		maxLag, owned, behind, missing := 0.0, 0, 0, 0
		for series, bf := range best {
			if !owns(addr, series) {
				continue
			}
			owned++
			d, ok := bySeries[series]
			if !ok {
				missing++
				continue
			}
			if lag := bf - d.Frontier; lag > 0 {
				behind++
				if lag > maxLag {
					maxLag = lag
				}
			}
		}
		fmt.Fprintf(out, "%-24s max lag %.1fs  (%d/%d series behind, %d missing)\n",
			addr, maxLag, behind, owned, missing)
	}
}

// repairSeries runs one client-driven repair pass over a series: digest the
// replicas, pick the most complete copy, backfill the laggards from it. The
// exit code is quorum-aware: nil only when at least a majority of the
// replica set ends the pass bit-identical to the best copy.
func repairSeries(c *nwsnet.Client, addrs []string, key string, out io.Writer) error {
	type state struct {
		addr string
		d    nwsnet.SeriesDigest
		ok   bool // replica answered the digest request
	}
	states := make([]state, len(addrs))
	for i, addr := range addrs {
		states[i] = state{addr: addr}
		ds, err := c.DigestsCtx(context.Background(), addr, key)
		if err != nil {
			fmt.Fprintf(out, "%-24s unreachable (%v)\n", addr, err)
			continue
		}
		states[i].ok = true
		if len(ds) > 0 {
			states[i].d = ds[0]
		}
	}

	// The most complete copy: newest frontier, point count as tiebreak.
	bestIdx := -1
	for i, s := range states {
		if !s.ok || s.d.Count == 0 {
			continue
		}
		if bestIdx < 0 || s.d.Frontier > states[bestIdx].d.Frontier ||
			(s.d.Frontier == states[bestIdx].d.Frontier && s.d.Count > states[bestIdx].d.Count) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return fmt.Errorf("repair %s: no reachable replica holds the series", key)
	}
	best := states[bestIdx]
	pts, err := c.FetchCtx(context.Background(), best.addr, key, 0, 0, 0)
	if err != nil {
		return fmt.Errorf("repair %s: fetch from %s: %w", key, best.addr, err)
	}
	fmt.Fprintf(out, "%-24s best copy (%d points, frontier %.3f)\n", best.addr, best.d.Count, best.d.Frontier)

	inSync := 1
	for _, s := range states {
		if !s.ok || s.addr == best.addr {
			continue
		}
		if s.d == best.d {
			inSync++
			fmt.Fprintf(out, "%-24s in sync\n", s.addr)
			continue
		}
		if err := c.BackfillCtx(context.Background(), s.addr, key, pts); err != nil {
			fmt.Fprintf(out, "%-24s backfill failed (%v)\n", s.addr, err)
			continue
		}
		ds, err := c.DigestsCtx(context.Background(), s.addr, key)
		switch {
		case err == nil && len(ds) > 0 && ds[0] == best.d:
			inSync++
			fmt.Fprintf(out, "%-24s repaired (+%d points)\n", s.addr, best.d.Count-s.d.Count)
		case err == nil && len(ds) > 0:
			// Still divergent: the replica holds points the best copy lacks
			// (it needs its own repair pass the other way) or took writes
			// mid-repair.
			fmt.Fprintf(out, "%-24s still divergent after backfill (%d points, frontier %.3f)\n",
				s.addr, ds[0].Count, ds[0].Frontier)
		default:
			fmt.Fprintf(out, "%-24s verify failed (%v)\n", s.addr, err)
		}
	}
	fmt.Fprintf(out, "%d/%d replicas in sync\n", inSync, len(addrs))
	if inSync < len(addrs)/2+1 {
		return fmt.Errorf("repair %s: only %d of %d replicas in sync (quorum %d)",
			key, inSync, len(addrs), len(addrs)/2+1)
	}
	return nil
}

// subscribe watches series on the forecaster's push plane and prints each
// pushed forecast. limit > 0 exits after that many pushes.
func subscribe(addr, tenant, series string, limit int, out io.Writer) error {
	m, err := nwsnet.DialMuxTenant(addr, tenant, 0)
	if err != nil {
		return err
	}
	defer m.Close()
	type push struct {
		resp nwsnet.Response
		err  error
	}
	pushes := make(chan push, 64)
	call := m.Subscribe(series, func(resp nwsnet.Response, err error) {
		select {
		case pushes <- push{resp, err}:
		default: // a stalled stdout must not block the reader goroutine
		}
	})
	ack, err := call.Wait()
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", series, err)
	}
	if f := ack.Forecast; f != nil {
		fmt.Fprintf(out, "current  %.4f (method %s, MAE %.4f over %d measurements)\n",
			f.Value, f.Method, f.MAE, f.N)
	} else {
		fmt.Fprintf(out, "current  no forecast yet (series empty)\n")
	}
	for n := 0; limit <= 0 || n < limit; {
		p := <-pushes
		if p.err != nil {
			return fmt.Errorf("subscription ended: %w", p.err)
		}
		if f := p.resp.Forecast; f != nil {
			fmt.Fprintf(out, "push     %.4f (method %s, MAE %.4f over %d measurements)\n",
				f.Value, f.Method, f.MAE, f.N)
			n++
		}
	}
	return nil
}

// members prints the cluster membership view — epoch, ring geometry, and
// every lease with its shard's share of a sample key space — and exits
// non-zero when fewer active memory members remain than the replication
// factor, i.e. when some key range has lost its write quorum.
func members(c *nwsnet.Client, nsAddr string, out io.Writer) error {
	v, err := c.FetchViewCtx(context.Background(), nsAddr, 0)
	if err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("registry %s returned no view", nsAddr)
	}
	cfg := v.Config.Normalize()
	fmt.Fprintf(out, "epoch %d  replication %d  vnodes %d  seed %d\n",
		v.Epoch, cfg.Replication, cfg.VNodes, cfg.Seed)
	if len(v.Members) == 0 {
		fmt.Fprintln(out, "no members")
		return fmt.Errorf("no active memory members (need %d for write quorum)", cfg.Replication)
	}
	// Shard balance over a synthetic key sample, so the listing shows how
	// the ring would spread load even before any series exist.
	shares := map[string]int{}
	if ring := v.Ring(string(nwsnet.KindMemory)); ring != nil {
		keys := make([]string, 1000)
		for i := range keys {
			keys[i] = fmt.Sprintf("host%04d/cpu/nws_hybrid", i)
		}
		shares = ring.Shares(keys)
	}
	active := 0
	for _, m := range v.Members {
		if m.State == cluster.StateActive && m.Kind == string(nwsnet.KindMemory) {
			active++
		}
		share := ""
		if n, ok := shares[m.ID]; ok {
			share = fmt.Sprintf("  %4.1f%% of keys", float64(n)/10)
		}
		fmt.Fprintf(out, "%-20s %-12s %-8s %s%s\n", m.ID, m.Kind, m.State, m.Addr, share)
	}
	fmt.Fprintf(out, "%d/%d active memory members (replication %d)\n", active, len(v.Members), cfg.Replication)
	if active < cfg.Replication {
		return fmt.Errorf("write quorum at risk: %d active memory members < replication %d", active, cfg.Replication)
	}
	return nil
}

// ringOwners prints which members own a series key under the current view.
func ringOwners(c *nwsnet.Client, nsAddr, key string, out io.Writer) error {
	v, err := c.FetchViewCtx(context.Background(), nsAddr, 0)
	if err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("registry %s returned no view", nsAddr)
	}
	owners := v.Owners(string(nwsnet.KindMemory), key)
	if len(owners) == 0 {
		return fmt.Errorf("no active memory member owns %q (epoch %d)", key, v.Epoch)
	}
	fmt.Fprintf(out, "epoch %d  key %s\n", v.Epoch, key)
	for i, m := range owners {
		role := "replica"
		if i == 0 {
			role = "primary"
		}
		fmt.Fprintf(out, "%-8s %-20s %s\n", role, m.ID, m.Addr)
	}
	if fc := v.Owners(string(nwsnet.KindForecaster), key); len(fc) > 0 {
		fmt.Fprintf(out, "%-8s %-20s %s\n", "forecast", fc[0].ID, fc[0].Addr)
	}
	return nil
}
