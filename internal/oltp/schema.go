// Package oltp implements a small OLTP engine running the TPC-C
// transaction mix over the repository's file system — the MySQL/HammerDB
// stand-in of the paper's Section 5.2.2 experiment.
//
// Tables are files of fixed-size records addressed by the TPC-C primary
// keys, which map onto dense indices (warehouse, district, customer,
// stock, item); orders and order lines live in per-district rings sized by
// MaxOrders; history is an append-only file. Record sizes follow the TPC-C
// schema (customer ≈ 655B, stock ≈ 306B, ...), rounded up, so each
// transaction touches a realistic number of file-system blocks. Every
// read-write transaction ends with one fsync, i.e. one storage-stack
// transaction — the unit the paper's clflush/txn and disk-blocks/txn
// metrics are normalized against.
package oltp

import (
	"encoding/binary"
	"fmt"
)

// Record sizes (bytes), rounded up from the TPC-C schema.
const (
	whSize    = 96
	distSize  = 112
	custSize  = 672
	stockSize = 320
	itemSize  = 88
	orderSize = 48
	olSize    = 64
	histSize  = 64

	districtsPerWH = 10
	maxOLPerOrder  = 15
)

// Config sizes the database. Defaults are scaled down from the paper's
// 350-warehouse/32GB setup so experiments run in seconds; access-pattern
// shape (records touched per transaction) is unchanged.
type Config struct {
	Dir                  string // table directory (default "/tpcc")
	Warehouses           int    // default 2
	CustomersPerDistrict int    // default 120 (TPC-C: 3000)
	Items                int    // default 500 (TPC-C: 100000)
	MaxOrders            int    // order ring size per district (default 128)
	Seed                 int64
}

func (c Config) withDefaults() Config {
	if c.Dir == "" {
		c.Dir = "/tpcc"
	}
	if c.Warehouses == 0 {
		c.Warehouses = 2
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 120
	}
	if c.Items == 0 {
		c.Items = 500
	}
	if c.MaxOrders == 0 {
		c.MaxOrders = 128
	}
	return c
}

// tablePaths holds the eight table file paths, computed once per Engine
// so no transaction builds a path string.
type tablePaths struct {
	warehouse, district, customer, stock, item, order, orderline, history string
}

func (c Config) tables() tablePaths {
	return tablePaths{
		warehouse: c.Dir + "/warehouse.tbl",
		district:  c.Dir + "/district.tbl",
		customer:  c.Dir + "/customer.tbl",
		stock:     c.Dir + "/stock.tbl",
		item:      c.Dir + "/item.tbl",
		order:     c.Dir + "/order.tbl",
		orderline: c.Dir + "/orderline.tbl",
		history:   c.Dir + "/history.tbl",
	}
}

// Record offsets. All indices are zero-based.
func (c Config) whOff(w int) uint64 { return uint64(w) * whSize }
func (c Config) distOff(w, d int) uint64 {
	return uint64(w*districtsPerWH+d) * distSize
}
func (c Config) custOff(w, d, cu int) uint64 {
	return uint64((w*districtsPerWH+d)*c.CustomersPerDistrict+cu) * custSize
}
func (c Config) stockOff(w, i int) uint64 {
	return uint64(w*c.Items+i) * stockSize
}
func (c Config) itemOff(i int) uint64 { return uint64(i) * itemSize }
func (c Config) orderOff(w, d, o int) uint64 {
	return uint64((w*districtsPerWH+d)*c.MaxOrders+o%c.MaxOrders) * orderSize
}
func (c Config) olOff(w, d, o, l int) uint64 {
	return uint64(((w*districtsPerWH+d)*c.MaxOrders+o%c.MaxOrders)*maxOLPerOrder+l) * olSize
}

// warehouse record fields (within its 96 bytes).
type warehouse struct {
	ytd uint64 // year-to-date payment total (cents)
}

func encodeWarehouse(w warehouse, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], w.ytd)
}

func decodeWarehouse(b []byte) warehouse {
	return warehouse{ytd: binary.LittleEndian.Uint64(b[0:])}
}

// district record fields (within its 112 bytes).
type district struct {
	nextOID      uint64 // next order id to assign
	deliveredOID uint64 // oldest undelivered order id
	ytd          uint64 // year-to-date payment total (cents)
	tax          uint64
}

func encodeDistrict(d district, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], d.nextOID)
	binary.LittleEndian.PutUint64(b[8:], d.deliveredOID)
	binary.LittleEndian.PutUint64(b[16:], d.ytd)
	binary.LittleEndian.PutUint64(b[24:], d.tax)
}

func decodeDistrict(b []byte) district {
	return district{
		nextOID:      binary.LittleEndian.Uint64(b[0:]),
		deliveredOID: binary.LittleEndian.Uint64(b[8:]),
		ytd:          binary.LittleEndian.Uint64(b[16:]),
		tax:          binary.LittleEndian.Uint64(b[24:]),
	}
}

// customer record fields.
type customer struct {
	balance  int64
	ytd      uint64
	payments uint64
	delivCnt uint64
}

func encodeCustomer(cu customer, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], uint64(cu.balance))
	binary.LittleEndian.PutUint64(b[8:], cu.ytd)
	binary.LittleEndian.PutUint64(b[16:], cu.payments)
	binary.LittleEndian.PutUint64(b[24:], cu.delivCnt)
}

func decodeCustomer(b []byte) customer {
	return customer{
		balance:  int64(binary.LittleEndian.Uint64(b[0:])),
		ytd:      binary.LittleEndian.Uint64(b[8:]),
		payments: binary.LittleEndian.Uint64(b[16:]),
		delivCnt: binary.LittleEndian.Uint64(b[24:]),
	}
}

// stock record fields.
type stock struct {
	qty      uint64
	ytd      uint64
	orderCnt uint64
}

func encodeStock(s stock, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], s.qty)
	binary.LittleEndian.PutUint64(b[8:], s.ytd)
	binary.LittleEndian.PutUint64(b[16:], s.orderCnt)
}

func decodeStock(b []byte) stock {
	return stock{
		qty:      binary.LittleEndian.Uint64(b[0:]),
		ytd:      binary.LittleEndian.Uint64(b[8:]),
		orderCnt: binary.LittleEndian.Uint64(b[16:]),
	}
}

// order record fields.
type order struct {
	oid       uint64
	cid       uint64
	olCount   uint64
	carrierID uint64
}

func encodeOrder(o order, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], o.oid)
	binary.LittleEndian.PutUint64(b[8:], o.cid)
	binary.LittleEndian.PutUint64(b[16:], o.olCount)
	binary.LittleEndian.PutUint64(b[24:], o.carrierID)
}

func decodeOrder(b []byte) order {
	return order{
		oid:       binary.LittleEndian.Uint64(b[0:]),
		cid:       binary.LittleEndian.Uint64(b[8:]),
		olCount:   binary.LittleEndian.Uint64(b[16:]),
		carrierID: binary.LittleEndian.Uint64(b[24:]),
	}
}

// orderline record fields.
type orderLine struct {
	itemID uint64
	qty    uint64
	amount uint64
}

func encodeOrderLine(ol orderLine, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], ol.itemID)
	binary.LittleEndian.PutUint64(b[8:], ol.qty)
	binary.LittleEndian.PutUint64(b[16:], ol.amount)
}

func decodeOrderLine(b []byte) orderLine {
	return orderLine{
		itemID: binary.LittleEndian.Uint64(b[0:]),
		qty:    binary.LittleEndian.Uint64(b[8:]),
		amount: binary.LittleEndian.Uint64(b[16:]),
	}
}

// String summarizes the configuration.
func (c Config) String() string {
	c = c.withDefaults()
	return fmt.Sprintf("tpcc(W=%d, C/D=%d, I=%d)", c.Warehouses, c.CustomersPerDistrict, c.Items)
}
