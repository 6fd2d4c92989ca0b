//! Multi-NI chassis capacity vs card count, plus one fault-injected run
//! (see `nistream_bench::cluster`). Prints the table and writes
//! `BENCH_cluster.json` (schema `nistream-bench/cluster/v1`) at the
//! repository root.

use nistream_bench::benchout::write_doc;
use nistream_bench::cluster;

fn main() {
    let bench = cluster::render();
    print!("{}", bench.table);
    let path = write_doc(cluster::FILE, &bench.doc);
    println!("wrote {}", path.display());
}
