package oltp

import (
	"fmt"
	"math/rand"

	"tinca/internal/fs"
	"tinca/internal/sim"
	"tinca/internal/workload"
)

// Engine is a loaded TPC-C database over a FileAPI. An Engine is
// single-goroutine: it owns its skew generator (zr) and one record buffer
// per table that every transaction reuses, so its methods must not run
// concurrently.
type Engine struct {
	f   workload.FileAPI
	cfg Config
	t   tablePaths

	// Record buffers, one per table; readRec fills them in place, so a
	// record's bytes stay valid only until the next read of that table.
	whBuf   [whSize]byte
	distBuf [distSize]byte
	custBuf [custSize]byte
	stBuf   [stockSize]byte
	itemBuf [itemSize]byte
	ordBuf  [orderSize]byte
	olBuf   [olSize]byte
	histBuf [histSize]byte

	// Skewed record selection (TPC-C's NURand makes some customers and
	// items hot; a Zipf draw reproduces that locality, which is what
	// gives both caches their high hit rates in the paper's Figure 12(c)).
	zr    *rand.Rand
	custZ *rand.Zipf
	itemZ *rand.Zipf
}

// Load populates the TPC-C tables and returns an Engine. The load phase
// is excluded from measurement by snapshotting metrics afterwards.
func Load(f workload.FileAPI, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{f: f, cfg: cfg, t: cfg.tables()}
	if err := f.Mkdir(cfg.Dir); err != nil && err != fs.ErrExist {
		return nil, err
	}

	W, C, I, M := cfg.Warehouses, cfg.CustomersPerDistrict, cfg.Items, cfg.MaxOrders
	create := func(path string, size uint64) error {
		if err := f.Create(path); err != nil && err != fs.ErrExist {
			return err
		}
		// Materialize the file in bulk (64KB strides) so records exist,
		// syncing periodically so group commits stay within any journal.
		const chunk = 64 << 10
		zero := make([]byte, chunk)
		written := uint64(0)
		for off := uint64(0); off < size; off += chunk {
			n := uint64(chunk)
			if off+n > size {
				n = size - off
			}
			if err := f.WriteAt(path, off, zero[:n]); err != nil {
				return err
			}
			written += n
			if written >= 1<<20 {
				if err := f.Fsync(path); err != nil {
					return err
				}
				written = 0
			}
		}
		return f.Fsync(path)
	}

	type tbl struct {
		path string
		size uint64
	}
	tables := []tbl{
		{e.t.warehouse, uint64(W) * whSize},
		{e.t.district, uint64(W*districtsPerWH) * distSize},
		{e.t.customer, uint64(W*districtsPerWH*C) * custSize},
		{e.t.stock, uint64(W*I) * stockSize},
		{e.t.item, uint64(I) * itemSize},
		{e.t.order, uint64(W*districtsPerWH*M) * orderSize},
		{e.t.orderline, uint64(W*districtsPerWH*M*maxOLPerOrder) * olSize},
	}
	for _, t := range tables {
		if err := create(t.path, t.size); err != nil {
			return nil, fmt.Errorf("oltp: load %s: %w", t.path, err)
		}
	}
	if err := f.Create(e.t.history); err != nil && err != fs.ErrExist {
		return nil, err
	}

	// Initialize districts (order rings start at id 0) and stock levels.
	buf := e.distBuf[:]
	for w := 0; w < W; w++ {
		for d := 0; d < districtsPerWH; d++ {
			encodeDistrict(district{nextOID: 0, deliveredOID: 0, ytd: 0, tax: 8}, buf)
			if err := f.WriteAt(e.t.district, cfg.distOff(w, d), buf); err != nil {
				return nil, err
			}
		}
	}
	sbuf := e.stBuf[:]
	for w := 0; w < W; w++ {
		for i := 0; i < I; i++ {
			encodeStock(stock{qty: 50 + uint64(i%50)}, sbuf)
			if err := f.WriteAt(e.t.stock, cfg.stockOff(w, i), sbuf); err != nil {
				return nil, err
			}
		}
	}
	if err := f.Fsync(e.t.district); err != nil {
		return nil, err
	}
	e.zr = sim.NewRand(cfg.Seed + 7)
	e.custZ = sim.Zipf(e.zr, 1.2, uint64(cfg.CustomersPerDistrict-1))
	e.itemZ = sim.Zipf(e.zr, 1.2, uint64(cfg.Items-1))
	return e, nil
}

// pickCustomer draws a skewed customer index: like TPC-C's NURand, most
// accesses hit a hot subset while a uniform tail touches the whole table.
func (e *Engine) pickCustomer() int {
	if e.zr.Intn(100) < 35 {
		return e.zr.Intn(e.cfg.CustomersPerDistrict)
	}
	return int(e.custZ.Uint64())
}

// pickItem draws a skewed item index with a uniform tail.
func (e *Engine) pickItem() int {
	if e.zr.Intn(100) < 35 {
		return e.zr.Intn(e.cfg.Items)
	}
	return int(e.itemZ.Uint64())
}

// Config returns the engine's (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// ---- record access helpers ----------------------------------------------

// readRec reads the record at off of the table at path into b, one of
// the engine's record buffers, and returns b.
func (e *Engine) readRec(path string, off uint64, b []byte) ([]byte, error) {
	if _, err := e.f.ReadAt(path, off, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (e *Engine) writeRec(path string, off uint64, b []byte) error {
	return e.f.WriteAt(path, off, b)
}

// ---- the five TPC-C transactions -----------------------------------------

// NewOrder places an order of 5..15 lines (45% of the mix).
func (e *Engine) NewOrder(r *rand.Rand) error {
	cfg := e.cfg
	w := r.Intn(cfg.Warehouses)
	d := r.Intn(districtsPerWH)
	cu := e.pickCustomer()

	// Read customer (credit check) and district; assign the order id.
	if _, err := e.readRec(e.t.customer, cfg.custOff(w, d, cu), e.custBuf[:]); err != nil {
		return err
	}
	db, err := e.readRec(e.t.district, cfg.distOff(w, d), e.distBuf[:])
	if err != nil {
		return err
	}
	dist := decodeDistrict(db)
	oid := dist.nextOID
	dist.nextOID++
	// The order ring must not wrap onto undelivered orders.
	if dist.nextOID-dist.deliveredOID > uint64(cfg.MaxOrders) {
		dist.deliveredOID = dist.nextOID - uint64(cfg.MaxOrders)
	}
	encodeDistrict(dist, db)
	if err := e.writeRec(e.t.district, cfg.distOff(w, d), db); err != nil {
		return err
	}

	nLines := 5 + r.Intn(11)
	ob := e.ordBuf[:]
	clear(ob)
	encodeOrder(order{oid: oid, cid: uint64(cu), olCount: uint64(nLines)}, ob)
	if err := e.writeRec(e.t.order, cfg.orderOff(w, d, int(oid)), ob); err != nil {
		return err
	}

	olb := e.olBuf[:]
	clear(olb)
	for l := 0; l < nLines; l++ {
		item := e.pickItem()
		// 1% of lines are remote-warehouse accesses, per TPC-C.
		sw := w
		if cfg.Warehouses > 1 && r.Intn(100) == 0 {
			sw = (w + 1 + r.Intn(cfg.Warehouses-1)) % cfg.Warehouses
		}
		if _, err := e.readRec(e.t.item, cfg.itemOff(item), e.itemBuf[:]); err != nil {
			return err
		}
		sb, err := e.readRec(e.t.stock, cfg.stockOff(sw, item), e.stBuf[:])
		if err != nil {
			return err
		}
		st := decodeStock(sb)
		qty := uint64(1 + r.Intn(10))
		if st.qty >= qty+10 {
			st.qty -= qty
		} else {
			st.qty += 91 - qty
		}
		st.ytd += qty
		st.orderCnt++
		encodeStock(st, sb)
		if err := e.writeRec(e.t.stock, cfg.stockOff(sw, item), sb); err != nil {
			return err
		}
		encodeOrderLine(orderLine{itemID: uint64(item), qty: qty, amount: qty * 100}, olb)
		if err := e.writeRec(e.t.orderline, cfg.olOff(w, d, int(oid), l), olb); err != nil {
			return err
		}
	}
	return e.f.Fsync(e.t.district)
}

// Payment records a customer payment (43% of the mix).
func (e *Engine) Payment(r *rand.Rand) error {
	cfg := e.cfg
	w := r.Intn(cfg.Warehouses)
	d := r.Intn(districtsPerWH)
	cu := e.pickCustomer()
	amount := uint64(100 + r.Intn(500000))

	wb, err := e.readRec(e.t.warehouse, cfg.whOff(w), e.whBuf[:])
	if err != nil {
		return err
	}
	wh := decodeWarehouse(wb)
	wh.ytd += amount
	encodeWarehouse(wh, wb)
	if err := e.writeRec(e.t.warehouse, cfg.whOff(w), wb); err != nil {
		return err
	}

	db, err := e.readRec(e.t.district, cfg.distOff(w, d), e.distBuf[:])
	if err != nil {
		return err
	}
	dist := decodeDistrict(db)
	dist.ytd += amount
	encodeDistrict(dist, db)
	if err := e.writeRec(e.t.district, cfg.distOff(w, d), db); err != nil {
		return err
	}

	cb, err := e.readRec(e.t.customer, cfg.custOff(w, d, cu), e.custBuf[:])
	if err != nil {
		return err
	}
	cust := decodeCustomer(cb)
	cust.balance -= int64(amount)
	cust.ytd += amount
	cust.payments++
	encodeCustomer(cust, cb)
	if err := e.writeRec(e.t.customer, cfg.custOff(w, d, cu), cb); err != nil {
		return err
	}

	hb := e.histBuf[:]
	clear(hb)
	encodeOrderLine(orderLine{itemID: uint64(cu), qty: amount, amount: amount}, hb)
	if err := e.f.Append(e.t.history, hb); err != nil {
		return err
	}
	return e.f.Fsync(e.t.district)
}

// OrderStatus reads a customer's most recent order (4%, read-only).
func (e *Engine) OrderStatus(r *rand.Rand) error {
	cfg := e.cfg
	w := r.Intn(cfg.Warehouses)
	d := r.Intn(districtsPerWH)
	cu := e.pickCustomer()
	if _, err := e.readRec(e.t.customer, cfg.custOff(w, d, cu), e.custBuf[:]); err != nil {
		return err
	}
	db, err := e.readRec(e.t.district, cfg.distOff(w, d), e.distBuf[:])
	if err != nil {
		return err
	}
	dist := decodeDistrict(db)
	if dist.nextOID == 0 {
		return nil // no orders yet
	}
	oid := int(dist.nextOID - 1)
	ob, err := e.readRec(e.t.order, cfg.orderOff(w, d, oid), e.ordBuf[:])
	if err != nil {
		return err
	}
	o := decodeOrder(ob)
	for l := 0; l < int(o.olCount) && l < maxOLPerOrder; l++ {
		if _, err := e.readRec(e.t.orderline, cfg.olOff(w, d, oid, l), e.olBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Delivery delivers the oldest undelivered order in each district (4%).
func (e *Engine) Delivery(r *rand.Rand) error {
	cfg := e.cfg
	w := r.Intn(cfg.Warehouses)
	delivered := false
	for d := 0; d < districtsPerWH; d++ {
		db, err := e.readRec(e.t.district, cfg.distOff(w, d), e.distBuf[:])
		if err != nil {
			return err
		}
		dist := decodeDistrict(db)
		if dist.deliveredOID >= dist.nextOID {
			continue
		}
		oid := int(dist.deliveredOID)
		dist.deliveredOID++
		encodeDistrict(dist, db)
		if err := e.writeRec(e.t.district, cfg.distOff(w, d), db); err != nil {
			return err
		}
		ob, err := e.readRec(e.t.order, cfg.orderOff(w, d, oid), e.ordBuf[:])
		if err != nil {
			return err
		}
		o := decodeOrder(ob)
		o.carrierID = uint64(1 + r.Intn(10))
		encodeOrder(o, ob)
		if err := e.writeRec(e.t.order, cfg.orderOff(w, d, oid), ob); err != nil {
			return err
		}
		total := uint64(0)
		for l := 0; l < int(o.olCount) && l < maxOLPerOrder; l++ {
			olb, err := e.readRec(e.t.orderline, cfg.olOff(w, d, oid, l), e.olBuf[:])
			if err != nil {
				return err
			}
			total += decodeOrderLine(olb).amount
		}
		cb, err := e.readRec(e.t.customer, cfg.custOff(w, d, int(o.cid)), e.custBuf[:])
		if err != nil {
			return err
		}
		cust := decodeCustomer(cb)
		cust.balance += int64(total)
		cust.delivCnt++
		encodeCustomer(cust, cb)
		if err := e.writeRec(e.t.customer, cfg.custOff(w, d, int(o.cid)), cb); err != nil {
			return err
		}
		delivered = true
	}
	if !delivered {
		return nil
	}
	return e.f.Fsync(e.t.district)
}

// StockLevel counts low-stock items among recent orders (4%, read-only).
func (e *Engine) StockLevel(r *rand.Rand) error {
	cfg := e.cfg
	w := r.Intn(cfg.Warehouses)
	d := r.Intn(districtsPerWH)
	db, err := e.readRec(e.t.district, cfg.distOff(w, d), e.distBuf[:])
	if err != nil {
		return err
	}
	dist := decodeDistrict(db)
	low := 0
	const threshold = 15
	start := int64(dist.nextOID) - 20
	if start < 0 {
		start = 0
	}
	for o := start; o < int64(dist.nextOID); o++ {
		ob, err := e.readRec(e.t.order, cfg.orderOff(w, d, int(o)), e.ordBuf[:])
		if err != nil {
			return err
		}
		ord := decodeOrder(ob)
		for l := 0; l < int(ord.olCount) && l < maxOLPerOrder; l++ {
			olb, err := e.readRec(e.t.orderline, cfg.olOff(w, d, int(o), l), e.olBuf[:])
			if err != nil {
				return err
			}
			ol := decodeOrderLine(olb)
			sb, err := e.readRec(e.t.stock, cfg.stockOff(w, int(ol.itemID)%cfg.Items), e.stBuf[:])
			if err != nil {
				return err
			}
			if decodeStock(sb).qty < threshold {
				low++
			}
		}
	}
	return nil
}

// Attach binds an Engine to an already-loaded database (e.g. after crash
// recovery) without re-running the load phase. cfg must match the
// configuration the database was loaded with.
func Attach(f workload.FileAPI, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if _, err := f.Stat(cfg.tables().district); err != nil {
		return nil, fmt.Errorf("oltp: attach: %w", err)
	}
	e := &Engine{f: f, cfg: cfg, t: cfg.tables()}
	e.zr = sim.NewRand(cfg.Seed + 7)
	e.custZ = sim.Zipf(e.zr, 1.2, uint64(cfg.CustomersPerDistrict-1))
	e.itemZ = sim.Zipf(e.zr, 1.2, uint64(cfg.Items-1))
	return e, nil
}
