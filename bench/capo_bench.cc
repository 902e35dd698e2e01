/**
 * @file
 * capo-bench: the experiment multiplexer. One binary that can list
 * every registered reproduction experiment and run any of them by
 * name — `capo-bench list`, `capo-bench run fig01_lbo_geomean
 * --full`.
 */

#include "report/experiment.hh"

int
main(int argc, char **argv)
{
    return capo::report::benchMain(argc, argv);
}
