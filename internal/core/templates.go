package core

import (
	"fmt"
	"sort"
	"strings"
)

// Template is one curated, Popperized experiment — the units behind
// `popper experiment list` and `popper add <template> <name>`
// (Listing lst:poppercli). Each template carries the convention files
// it instantiates and an executable binding that drives the simulated
// substrates when the experiment runs.
type Template struct {
	Name        string
	Description string
	// files returns the experiment-relative convention files.
	files func() map[string]string
	// run is the executable binding (see executors.go).
	run Executor
}

// registry holds the paper's template list (Listing lst:poppercli names
// exactly these nine) plus jupyter-bww from the data-science use case
// and adhoc, the runnable skeleton Popperize instantiates.
var registry = map[string]*Template{}

func register(t *Template) {
	if _, dup := registry[t.Name]; dup {
		panic("core: duplicate template " + t.Name)
	}
	registry[t.Name] = t
}

// Templates lists available template names, sorted — the output of
// `popper experiment list`.
func Templates() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TemplateByName resolves a template.
func TemplateByName(name string) (*Template, error) {
	t, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown template %q (try `popper experiment list`)", name)
	}
	return t, nil
}

// FormatTemplateList renders the template table the CLI prints.
func FormatTemplateList() string {
	var sb strings.Builder
	sb.WriteString("-- available templates ---------------\n")
	names := Templates()
	for i, n := range names {
		fmt.Fprintf(&sb, "%-18s", n)
		if (i+1)%3 == 0 || i == len(names)-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// AddExperiment instantiates a template under experiments/<name>/ —
// `popper add <template> <name>`.
func (p *Project) AddExperiment(template, name string) error {
	if name == "" || strings.ContainsAny(name, "/ \t") {
		return fmt.Errorf("core: invalid experiment name %q", name)
	}
	t, err := TemplateByName(template)
	if err != nil {
		return err
	}
	for _, existing := range p.Experiments() {
		if existing == name {
			return fmt.Errorf("core: experiment %q already exists", name)
		}
	}
	for rel, content := range t.files() {
		// Templates refer to their instantiation as <experiment> (e.g. the
		// `popper run` line in run.sh); bind the placeholder to the name.
		p.Files[expPath(name, rel)] = []byte(strings.ReplaceAll(content, "<experiment>", name))
	}
	return nil
}

// templateOfParams resolves the template an experiment's flattened
// vars.yml records.
func templateOfParams(name string, params map[string]string) (*Template, error) {
	tname, ok := params["template"]
	if !ok {
		return nil, fmt.Errorf("core: experiment %q does not record its template in vars.yml", name)
	}
	return TemplateByName(tname)
}

// Popperize wraps an ad-hoc experiment (loose files, e.g. scripts and
// spreadsheets) into the convention: the files move under
// experiments/<name>/, and skeleton orchestration, parametrization and
// validation files are added for the author to fill in. It returns the
// number of convention files that had to be created — the "effort"
// measure of the paper's MPI use case.
func (p *Project) Popperize(name string, adhoc map[string][]byte) (created int, err error) {
	if name == "" || strings.ContainsAny(name, "/ \t") {
		return 0, fmt.Errorf("core: invalid experiment name %q", name)
	}
	for _, existing := range p.Experiments() {
		if existing == name {
			return 0, fmt.Errorf("core: experiment %q already exists", name)
		}
	}
	for rel, content := range adhoc {
		p.Files[expPath(name, rel)] = content
	}
	skeletons := map[string]string{
		"run.sh":    "#!/bin/sh\n# Replay the archived ad-hoc artifacts on the simulated substrate\n# and regenerate results.csv and the figures from them.\npopper run " + name + "\n",
		"setup.yml": "- name: setup\n  hosts: all\n  tasks:\n    - name: sanitize environment\n      ping:\n",
		"vars.yml":  "template: adhoc\nmachine: cloudlab-c220g1\ntrials: 3\nseed: 42\n",
		"validations.aver": "# Every archived artifact was replayed and measured; tighten these\n" +
			"# into the experiment's real findings as they are codified.\n" +
			"expect count(*) > 0;\nwhen file=* expect bytes >= 0\n",
		"datasets/.gitkeep": "",
	}
	for rel, content := range skeletons {
		path := expPath(name, rel)
		if _, exists := p.Files[path]; !exists {
			p.Files[path] = []byte(content)
			created++
		}
	}
	return created, nil
}

// --- template definitions -------------------------------------------------

// commonFiles builds the standard convention files around a template.
func commonFiles(template, varsYml, validations, readme string) func() map[string]string {
	return func() map[string]string {
		return map[string]string{
			"run.sh":            "#!/bin/sh\npopper run <experiment>\n",
			"setup.yml":         "- name: provision\n  hosts: all\n  tasks:\n    - name: sanity ping\n      ping:\n",
			"vars.yml":          "template: " + template + "\n" + varsYml,
			"validations.aver":  validations,
			"datasets/.gitkeep": "",
			"README.md":         readme,
		}
	}
}

func init() {
	register(&Template{
		Name:        "gassyfs",
		Description: "Scalability of the GassyFS in-memory distributed filesystem (compile-Git workload)",
		files: commonFiles("gassyfs",
			"machine: cloudlab-c220g1\nnodes: [1, 2, 4, 8]\nseed: 42\nsources: 96\nsegment_mb: 256\n",
			"# the paper's Listing lst:aver-assertion\nwhen\n  workload=* and machine=*\nexpect\n  sublinear(nodes,time)\n",
			"# GassyFS scalability\n\nCompiles Git on GassyFS over increasing GASNet cluster sizes.\n"),
		run: runGassyfs,
	})
	register(&Template{
		Name:        "torpor",
		Description: "Cross-platform performance variability profiles (stress-ng battery)",
		files: commonFiles("torpor",
			"base: xeon-2005\nmachines: [cloudlab-c220g1]\nops: 100\nseed: 42\nbucket: 0.1\n",
			"when machine=* expect speedup > 1;\nwhen machine=* expect within(speedup, 0.5, 20)\n",
			"# Torpor\n\nQuantifies per-stressor speedup of newer platforms against a 10-year-old Xeon.\n"),
		run: runTorpor,
	})
	register(&Template{
		Name:        "mpi-comm-variability",
		Description: "MPI noisy-neighbour communication variability (LULESH proxy + mpiP)",
		files: commonFiles("mpi-comm-variability",
			"machine: ec2-m4\nranks: 8\nruns: 10\niterations: 5\nproblem_size: 30\nseed: 42\n",
			"when noisy='no' expect cv(time) < 0.1;\nwhen noisy='yes' expect cv(time) > 0.1;\nwhen noisy=* expect count(*) >= 5\n",
			"# MPI communication variability\n\nRuns a LULESH-like proxy repeatedly with and without noisy neighbours.\n"),
		run: runMPIVariability,
	})
	register(&Template{
		Name:        "jupyter-bww",
		Description: "Big Weather Web air-temperature analysis (NCEP/NCAR-style reanalysis)",
		files: commonFiles("jupyter-bww",
			"days: 72\nlat_step: 10\nlon_step: 30\nseed: 7\ndataset: air-temperature\n",
			"expect within(global_mean, 275, 300);\nexpect amp_north > amp_south\n",
			"# BWW air-temperature analysis\n\nSeasonal climatology of a reanalysis-style dataset.\n"),
		run: runBWW,
	})
	register(&Template{
		Name:        "cloverleaf",
		Description: "CloverLeaf-style hydrodynamics proxy scaling",
		files: commonFiles("cloverleaf",
			"machine: probe-opteron\nnodes: [1, 2, 4, 8]\niterations: 5\nproblem_size: 24\nseed: 42\n",
			"expect sublinear(nodes,time) and decreasing(nodes,time)\n",
			"# CloverLeaf proxy\n\nStrong-scaling of a structured hydrodynamics stencil.\n"),
		run: runCloverleaf,
	})
	register(&Template{
		Name:        "spark-standalone",
		Description: "Distributed word-count on a standalone analytics cluster",
		files: commonFiles("spark-standalone",
			"machine: cloudlab-c220g1\nnodes: [1, 2, 4, 8]\nwords_millions: 64\nseed: 42\n",
			"expect sublinear(nodes,time) and decreasing(nodes,time)\n",
			"# Spark-style word count\n\nMap, shuffle and reduce over a partitioned corpus.\n"),
		run: runSpark,
	})
	register(&Template{
		Name:        "ceph-rados",
		Description: "RADOS-style replicated object-store throughput",
		files: commonFiles("ceph-rados",
			"machine: cloudlab-c8220\nnodes: [4, 8, 16]\nobjects: 64\nobject_mb: 4\nreplicas: 3\nseed: 42\n",
			"expect increasing(nodes, write_mbps) and increasing(nodes, read_mbps)\n",
			"# ceph-rados bench\n\nAggregate object throughput as OSD count grows.\n"),
		run: runCephRados,
	})
	register(&Template{
		Name:        "zlog",
		Description: "CORFU-style shared-log append throughput vs batch size",
		files: commonFiles("zlog",
			"machine: cloudlab-c8220\nstorage_nodes: 4\nbatches: [1, 4, 16, 64]\nappends: 512\nentry_kb: 4\nseed: 42\n",
			"expect increasing(batch, appends_per_sec)\n",
			"# zlog\n\nSequencer-mediated appends to a distributed shared log.\n"),
		run: runZlog,
	})
	register(&Template{
		Name:        "proteustm",
		Description: "ProteusTM-style transactional-memory contention study",
		files: commonFiles("proteustm",
			"machine: cloudlab-c220g1\nthreads: [1, 2, 4, 8, 16]\nops: 200000\nconflict: 0.05\nseed: 42\n",
			"expect increasing(threads, abort_rate);\nexpect within(abort_rate, 0, 1)\n",
			"# ProteusTM\n\nAbort rate and throughput of an STM under growing contention.\n"),
		run: runProteusTM,
	})
	register(&Template{
		Name:        "adhoc",
		Description: "Runnable skeleton for Popperizing an ad-hoc experiment (replays the archived artifacts)",
		files: commonFiles("adhoc",
			"machine: cloudlab-c220g1\ntrials: 3\nseed: 42\n",
			"# Every archived artifact was replayed and measured; tighten these\n"+
				"# into the experiment's real findings as they are codified.\n"+
				"expect count(*) > 0;\nwhen file=* expect bytes >= 0\n",
			"# An ad-hoc experiment, Popperized\n\nDrop the loose scripts and data here; `popper run` replays them\non the simulated substrate and records a provenance table.\n"),
		run: runAdhoc,
	})
	register(&Template{
		Name:        "malacology",
		Description: "Malacology-style programmable-storage metadata service saturation",
		files: commonFiles("malacology",
			"machine: cloudlab-c220g1\nclients: [1, 2, 4, 8, 16, 32]\nops_per_client: 2000\nseed: 42\n",
			"expect sublinear(clients, ops_per_sec)\n",
			"# Malacology\n\nMetadata-service throughput as client count grows past saturation.\n"),
		run: runMalacology,
	})
}
