#ifndef TABSKETCH_CLI_COMMANDS_H_
#define TABSKETCH_CLI_COMMANDS_H_

#include <ostream>

namespace tabsketch::cli {

/// Entry point of the `tabsketch` command-line tool, separated from main()
/// so commands are unit-testable. Writes results to `out`, diagnostics to
/// `err`; returns a process exit code (0 on success).
///
/// Commands (`tabsketch help` prints every flag):
///   generate   --dataset=call-volume|six-region --out=FILE [...]
///   info       --table=FILE
///   sketch     --table=FILE --out=FILE --tile-rows=N --tile-cols=N
///              [--p= --k= --seed= --sparsity= --threads=]
///   distance   --table=FILE --rect1=r,c,h,w --rect2=r,c,h,w
///              [--p= --k= --seed=]
///   cluster    --table=FILE --tile-rows=N --tile-cols=N [--k= --p= --seed=]
///              [--mode=exact|precomputed|ondemand] [--sketch-k=]
///              [--sparsity= --cache-bytes= --quant= --threads=] [--out=FILE]
///   pool-build --table=FILE --out=FILE [--p= --k= --seed= --sparsity=]
///              [--min-log2= --max-log2= --threads=]
///   pool-query --pool=FILE --rect1=r,c,h,w --rect2=r,c,h,w [--table=FILE]
///   query      --table=FILE --tile-rows=N --tile-cols=N --batch=FILE
///              [--p= --k= --seed= --sparsity=] [--sketches=FILE]
///              [--cache-bytes= --threads= --refine --candidates= --quant=]
///              [--out=FILE]
///   serve      --table=FILE and/or --sketches=FILE --tile-rows=N
///              --tile-cols=N, query's family/cache/engine flags, plus
///              [--ingest] [--port= --port-file=] [--max-inflight=]
///              [--max-queue=] [--deadline-ms=] [--slow-ms= --slow-log=]
///              [--stats-interval=]
///   ingest     --pieces=F1,F2,... --tile-rows=N --tile-cols=N --out=FILE
///              [--p= --k= --seed= --sparsity= --threads=] [--window=N]
///              [--table-out=FILE]
///   top        --port=N | --port-file=FILE [--interval= --once]
///   help
int RunTabsketchCli(int argc, const char* const* argv, std::ostream& out,
                    std::ostream& err);

}  // namespace tabsketch::cli

#endif  // TABSKETCH_CLI_COMMANDS_H_
