package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sort"

	"voxel"
)

// digester hashes values bit for bit: floats by their IEEE bits, maps in
// key order, pointers by what they point to.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digester) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.String:
		d.str(v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.u64(math.MaxUint64)
			return
		}
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			d.u64(math.MaxUint64)
			return
		}
		if v.Kind() == reflect.Interface {
			d.str(v.Elem().Type().String())
		}
		d.value(v.Elem())
	case reflect.Map:
		type kv struct {
			k []byte
			v reflect.Value
		}
		entries := make([]kv, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			kd := newDigester()
			kd.value(it.Key())
			entries = append(entries, kv{kd.h.Sum(nil), it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		d.u64(uint64(len(entries)))
		for _, e := range entries {
			d.h.Write(e.k)
			d.value(e.v)
		}
	default: // channels and funcs carry no result data
		d.str(v.Kind().String())
	}
}

// aggregate hashes one cell's results: every trial (with its sessions and
// telemetry), the folded samples, the merged report, and each failure's
// identity. Failure stacks are run-specific and left out.
func (d *digester) aggregate(a *voxel.Aggregate) {
	d.value(reflect.ValueOf(a.Trials))
	d.value(reflect.ValueOf(a.BufRatios))
	d.value(reflect.ValueOf(a.Bitrates))
	d.value(reflect.ValueOf(a.AllScores))
	d.value(reflect.ValueOf(a.Obs))
	d.u64(uint64(len(a.Failed)))
	for _, f := range a.Failed {
		d.u64(uint64(f.Trial))
		d.str(f.Rule)
		d.str(f.Msg)
	}
}

// digestAggregates hashes a workload's per-cell aggregates in cell order.
func digestAggregates(aggs []*voxel.Aggregate) string {
	d := newDigester()
	d.u64(uint64(len(aggs)))
	for _, a := range aggs {
		d.aggregate(a)
	}
	return d.sum()
}

// digestOf hashes any value.
func digestOf(x any) string {
	d := newDigester()
	d.value(reflect.ValueOf(x))
	return d.sum()
}
