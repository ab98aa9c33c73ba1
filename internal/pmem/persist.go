package pmem

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/xpsim"
)

// heapImage is the serialized form of a heap: machine geometry, device
// contents, and the region table. It makes the simulated persistent
// memory actually persistent across process restarts, so the CLI can
// ingest in one invocation and crash-recover in another.
type heapImage struct {
	Magic   string
	Sockets int
	PerNode int64
	Lat     xpsim.LatencyModel
	Devices []xpsim.DeviceState
	Regions []regionImage
}

type regionImage struct {
	Name  string
	Size  int64
	Place Placement
	Bases []int64
	Nodes []int
	Alloc int64
}

const imageMagic = "xpgraph-heap-v1"

// save serializes the heap (devices drained, regions included) to w.
func save(w io.Writer, h *Heap) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	img := heapImage{
		Magic:   imageMagic,
		Sockets: h.machine.Sockets,
		Lat:     h.machine.Lat,
	}
	for _, d := range h.machine.Devices() {
		img.PerNode = d.Size()
		img.Devices = append(img.Devices, d.ExportState())
	}
	for _, r := range h.regions {
		ri := regionImage{Name: r.name, Size: r.size, Place: r.place,
			Bases: r.bases, Alloc: r.allocMirror}
		for _, d := range r.devs {
			ri.Nodes = append(ri.Nodes, d.Node())
		}
		img.Regions = append(img.Regions, ri)
	}
	return gob.NewEncoder(w).Encode(img)
}

// load rebuilds a machine and heap from a save image.
func load(r io.Reader) (*xpsim.Machine, *Heap, error) {
	var img heapImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, nil, fmt.Errorf("pmem: decode heap image: %w", err)
	}
	if img.Magic != imageMagic {
		return nil, nil, fmt.Errorf("pmem: not a heap image (magic %q)", img.Magic)
	}
	m := xpsim.NewMachine(img.Sockets, img.PerNode, img.Lat)
	for i, st := range img.Devices {
		if i >= img.Sockets {
			return nil, nil, fmt.Errorf("pmem: image has %d devices for %d sockets", len(img.Devices), img.Sockets)
		}
		if err := m.Device(i).RestoreState(st); err != nil {
			return nil, nil, err
		}
	}
	h := NewHeap(m)
	for _, ri := range img.Regions {
		reg := &Region{heap: h, name: ri.Name, size: ri.Size, place: ri.Place,
			bases: ri.Bases, allocMirror: ri.Alloc}
		for _, n := range ri.Nodes {
			reg.devs = append(reg.devs, m.Device(n))
		}
		h.regions[ri.Name] = reg
	}
	return m, h, nil
}

// SaveFile and LoadFile are the file-path conveniences the CLI uses.
func SaveFile(path string, h *Heap) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile rebuilds a machine and heap from a file written by SaveFile.
func LoadFile(path string) (*xpsim.Machine, *Heap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return load(f)
}
