//! Multi-NI chassis capacity vs card count, plus one fault-injected run
//! (see `nistream_bench::cluster`). Prints the table and writes
//! `BENCH_cluster.json` (schema `nistream-bench/cluster/v1`) at the
//! repository root.
//!
//! Flag: `--check` (validate the existing document and exit).

use nistream_bench::benchout::{check_flag, run_check, write_doc};
use nistream_bench::cluster;

fn main() {
    if check_flag() {
        run_check(cluster::FILE, cluster::SCHEMA, &cluster::REQUIRED_KEYS);
    }
    let bench = cluster::render();
    print!("{}", bench.table);
    let path = write_doc(cluster::FILE, &bench.doc);
    println!("wrote {}", path.display());
}
