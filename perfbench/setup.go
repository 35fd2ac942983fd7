package main

import (
	"fmt"
	"path/filepath"
	"time"

	"scout/internal/dataset"
	"scout/internal/flatindex"
	"scout/internal/pagestore"
	"scout/internal/rtree"
)

const (
	// objects is the neuro dataset size every workload runs on: 200k
	// cylinders, 3125 pages of 64 objects.
	objects = 200_000
	// datasetSeed fixes the generated tissue. The workload seed varies the
	// explorations and fault schedules over it; varying the tissue too
	// would add between-seed spread that no code change causes.
	datasetSeed = 1
	// setupRuns is how many times a run builds its set-up; setup_s is the
	// median.
	setupRuns = 5
)

// setupSpec is what a workload's set-up builds beyond the dataset and the
// R-tree.
type setupSpec struct {
	flat   bool   // FLAT index for SCOUT-OPT
	layout string // physical layout installed after the bulk load
	file   bool   // durable file backend with checksum repair
}

// env is one built set-up.
type env struct {
	ds    *dataset.Dataset
	store *pagestore.Store
	tree  *rtree.Tree
	flat  *flatindex.Index
	fs    *pagestore.FileStore
}

// setupTimes are one set-up's phase wall times.
type setupTimes struct {
	generate, bulkload, flat, relayout, filestore time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.generate + t.bulkload + t.flat + t.relayout + t.filestore
}

// build generates the dataset and builds everything the spec asks for,
// timing each phase. The page file, if any, is written into dir.
func build(spec setupSpec, dir string) (*env, setupTimes, error) {
	var t setupTimes
	e := &env{}
	start := time.Now()
	cfg := dataset.DefaultNeuroConfig()
	cfg.NumObjects = objects
	cfg.Seed = datasetSeed
	e.ds = dataset.GenerateNeuro(cfg)
	e.store = pagestore.NewStore(e.ds.Objects)
	t.generate = time.Since(start)

	start = time.Now()
	tree, err := rtree.BulkLoad(e.store, rtree.Config{})
	if err != nil {
		return nil, t, fmt.Errorf("bulk load: %w", err)
	}
	e.tree = tree
	t.bulkload = time.Since(start)

	if spec.flat {
		start = time.Now()
		flat, err := flatindex.Build(e.store, rtree.Config{}, 0)
		if err != nil {
			return nil, t, fmt.Errorf("flat index: %w", err)
		}
		e.flat = flat
		t.flat = time.Since(start)
	}
	if spec.layout != "" {
		start = time.Now()
		l, err := pagestore.ParseLayout(spec.layout)
		if err != nil {
			return nil, t, err
		}
		if err := e.store.Relayout(l); err != nil {
			return nil, t, fmt.Errorf("relayout: %w", err)
		}
		t.relayout = time.Since(start)
	}
	if spec.file {
		// Written after the relayout, so the file's slot order is the
		// layout every priced elevator sweep assumes.
		start = time.Now()
		fs, err := pagestore.CreateFileStore(filepath.Join(dir, "neuro.pages"), e.store,
			pagestore.FileStoreConfig{Mode: pagestore.ChecksumRepair, Replica: true})
		if err != nil {
			return nil, t, err
		}
		e.fs = fs
		t.filestore = time.Since(start)
	}
	return e, t, nil
}

// close releases the page file.
func (e *env) close() error {
	if e.fs == nil {
		return nil
	}
	return e.fs.Close()
}
