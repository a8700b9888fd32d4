package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// runMeta is the metadata printed with every result.
type runMeta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Revision     string  `json:"revision"`
	FSType       string  `json:"fs_type"`
	Setups       int     `json:"setups"`
	Clients      int     `json:"clients"`
	SyncWrites   bool    `json:"sync_writes"`
	ValueBytes   int     `json:"value_bytes"`
	DatasetBytes int64   `json:"dataset_bytes"`
	PerCache     float64 `json:"dataset_per_cache"`
	PerMemtable  float64 `json:"dataset_per_memtable"`
	Options      any     `json:"options"`
}

func printMeta(b *bench, d time.Duration, traced bool, setups int) {
	o := b.w.opts
	live := b.liveBytes()
	m := runMeta{
		Workload: b.w.name, Seed: b.seed, Seconds: d.Seconds(), Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: revision(), FSType: fsType(b.workdir), Setups: setups,
		Clients: b.w.clients, SyncWrites: o.SyncWrites, ValueBytes: b.w.valueSize,
		DatasetBytes: live,
		PerCache:     float64(live) / float64(o.CacheSize),
		PerMemtable:  float64(live) / float64(o.MemtableSize),
		Options: map[string]any{
			"Engine": o.Engine.String(), "Shards": o.Shards,
			"MemtableSize": o.MemtableSize, "CacheSize": o.CacheSize,
			"SyncWrites": o.SyncWrites, "ValueThreshold": o.ValueThreshold,
			"VlogSegmentSize": o.VlogSegmentSize,
			"Fanout":          "default", "K": "default", "CompactionThreads": "default",
		},
	}
	out, err := json.Marshal(m)
	if err != nil {
		out = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("# meta %s\n", out)
}

// revision is the git revision the binary was built from, when the
// build saw a repository.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (built outside a git checkout)"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("unknown (magic 0x%x)", uint64(st.Type))
}
