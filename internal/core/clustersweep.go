// Cluster-scale sweep execution: the glue between RunSweep and the
// cluster scheduler (internal/sched) when SweepOptions.Hosts asks for a
// simulated fleet. Provisioning goes through the orchestration
// substrate — orchestrate.Runner.ScaleGroup elastically grows a "sweep"
// inventory group against a cluster provider — so the same machinery
// that configures hosts in playbooks also hands fleets to the
// scheduler. See docs/SCHEDULING.md.

package core

import (
	"popper/internal/cas"
	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/orchestrate"
	"popper/internal/pipeline"
	"popper/internal/sched"
)

// DefaultHostProfile is the machine profile sweeps fan across when
// SweepOptions.HostProfile is empty.
const DefaultHostProfile = "cloudlab-c220g1"

// fedSegmentBytes is the per-host gasnet segment a federated sweep
// attaches for cache-chunk exchange. Chunks that no longer fit are
// simply not published — peers recompute instead, a graceful
// degradation that never changes artifacts.
const fedSegmentBytes = 32 << 20

// runSweepCluster provisions opts.Hosts simulated hosts, schedules the
// todo set across them, and executes runConfig in the schedule's
// dispatch order. The schedule consumes virtual time only; runConfig's
// side effects are exactly those of the flat worker-pool path.
func runSweepCluster(env *Env, opts SweepOptions, todo []int, runConfig func(k, host int) error) (*sched.ClusterReport, error) {
	profName := opts.HostProfile
	if profName == "" {
		profName = DefaultHostProfile
	}
	prof, err := cluster.Profile(profName)
	if err != nil {
		return nil, err
	}
	seed := env.Seed
	if opts.Faults != nil {
		seed = opts.Faults.Seed()
	}

	inv := orchestrate.NewInventory()
	runner := orchestrate.NewRunner(inv)
	clus := cluster.New(seed)
	if _, err := runner.ScaleGroup(clus, prof, "sweep", opts.Hosts); err != nil {
		return nil, err
	}

	// Locality hints arrive keyed by configuration index; the scheduler
	// sees the todo-compacted task space (resumed and limited configs
	// are not scheduled), so re-key them.
	var locality []int
	if len(opts.Locality) > 0 {
		locality = make([]int, len(todo))
		for k, i := range todo {
			locality[k] = -1
			if i < len(opts.Locality) {
				locality[k] = opts.Locality[i]
			}
		}
	}

	hosts := inv.HostSpecs("sweep")
	if err := federateSweepCache(opts.Cache, hosts); err != nil {
		return nil, err
	}

	cs, err := sched.NewClusterScheduler(sched.ClusterOptions{
		Hosts:     hosts,
		Placement: opts.Placement,
		Locality:  locality,
		Seed:      seed,
		Faults:    opts.Faults,
		Jobs:      opts.Jobs,
		FailFast:  opts.FailFast,
	})
	if err != nil {
		return nil, err
	}
	_, rep := cs.RunHosted(len(todo), runConfig)
	return rep, nil
}

// federateSweepCache attaches a peer-to-peer federation over the
// fleet's gasnet segments to the shared stage cache: each host
// publishes the chunks of entries it computes, and a host missing an
// entry fetches the chunks from the cheapest holder (alpha-beta
// transfer cost over the machine profiles) instead of recomputing.
// All movement is charged to the hosts' virtual clocks; artifacts are
// unaffected. A fleet whose hosts carry no cluster nodes (a mixed
// inventory) runs unfederated.
func federateSweepCache(cache *pipeline.Cache, hosts []sched.HostSpec) error {
	if cache == nil {
		return nil
	}
	nodes := make([]*cluster.Node, len(hosts))
	profiles := make([]*cluster.MachineProfile, len(hosts))
	for i, h := range hosts {
		if h.Node == nil {
			return nil
		}
		nodes[i] = h.Node
		profiles[i] = h.Profile
	}
	if len(nodes) == 0 {
		return nil
	}
	world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		return err
	}
	if err := world.AttachAll(fedSegmentBytes); err != nil {
		return err
	}
	fed, err := cas.NewFederation(cache.Tier(), world, profiles)
	if err != nil {
		return err
	}
	cache.Federate(fed)
	return nil
}
