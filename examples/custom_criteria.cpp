/**
 * @file
 * Domain example: slicing a non-browser workload with both criteria
 * modes, plus trace files on disk.
 *
 * The profiler is browser-independent (the paper stresses this): here it
 * analyzes a little "message broker" that receives packets, routes some
 * of them out over the network, keeps statistics nobody reads, and
 * journals everything to a log. Pixel-style criteria don't apply, so the
 * example uses the system-call criteria ("what affects the values handed
 * to the kernel") — and shows the trace/symtab/criteria sidecar files
 * round-tripping through disk, the way the paper's Pin tool hands traces
 * to the offline profiler.
 *
 *   $ ./examples/custom_criteria
 */

#include <cstdio>

#include "analysis/function_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/slicer.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"

using namespace webslice;

int
main()
{
    sim::Machine machine;
    const auto tid = machine.addThread("broker");
    const auto receive = machine.registerFunction("broker::receive");
    const auto route = machine.registerFunction("broker::route");
    const auto audit = machine.registerFunction("broker::audit");

    const uint64_t inbox = machine.alloc(64, "inbox");
    const uint64_t outbox = machine.alloc(64, "outbox");
    const uint64_t stats = machine.alloc(64, "stats");
    const uint64_t journal = machine.alloc(256, "journal");

    machine.post(tid, [&](sim::Ctx &ctx) {
        for (int packet = 0; packet < 6; ++packet) {
            // A packet arrives: the kernel fills the inbox.
            machine.mem().write(inbox, 8, 0xC0FFEE00u + packet);
            {
                sim::TracedScope scope(ctx, receive);
                sim::Value r = sim::sysRecvfrom(ctx, inbox, 16);
                (void)r;
            }
            {
                sim::TracedScope scope(ctx, route);
                sim::Value header = ctx.load(inbox, 8);
                sim::Value key = ctx.andi(header, 1);
                // Odd packets are forwarded; even ones are dropped.
                if (ctx.branchIf(key)) {
                    sim::Value rewritten =
                        ctx.bxor(header, ctx.imm(0xA5A5));
                    ctx.store(outbox, 8, rewritten);
                    sim::Value s = sim::sysSendto(ctx, outbox, 16);
                    (void)s;
                }
            }
            {
                // Statistics and journaling: all of it is waste under
                // syscall criteria — nothing here reaches the kernel.
                sim::TracedScope scope(ctx, audit);
                sim::Value count = ctx.load(stats, 8);
                sim::Value bumped = ctx.addi(count, 1);
                ctx.store(stats, 8, bumped);
                sim::Value entry = ctx.load(inbox, 8);
                sim::Value digest = ctx.muli(entry, 0x9E3779B1ull);
                ctx.store(journal + (packet % 16) * 8, 8, digest);
            }
        }
    });
    machine.run();

    // ---- persist the trace the way the Pin tool would ------------------------
    const std::string dir = "/tmp/webslice-broker";
    std::remove((dir + ".trc").c_str());
    trace::saveTrace(dir + ".trc", machine.records());
    machine.symtab().save(dir + ".sym");
    machine.pixelCriteria().save(dir + ".crit");

    // ---- reload and profile offline ------------------------------------------
    const auto records = trace::loadTrace(dir + ".trc");
    trace::SymbolTable symtab;
    symtab.load(dir + ".sym");

    const auto cfgs = graph::buildCfgs(records, symtab);
    const auto deps = graph::buildControlDeps(cfgs);

    slicer::SlicerOptions options;
    options.mode = slicer::CriteriaMode::Syscalls;
    const trace::CriteriaSet no_markers;
    const auto slice =
        slicer::computeSlice(records, cfgs, deps, no_markers, options);

    std::printf("broker trace: %zu records (round-tripped via %s.trc)\n",
                records.size(), dir.c_str());
    std::printf("syscall-criteria slice: %llu of %llu instructions "
                "(%.0f%%)\n\n",
                static_cast<unsigned long long>(slice.sliceInstructions),
                static_cast<unsigned long long>(
                    slice.instructionsAnalyzed),
                slice.slicePercent());

    // Per-function attribution, tallied by the backward pass.
    for (const auto &row :
         analysis::computeFunctionStats(slice, cfgs, symtab)) {
        std::printf("  %-24s %4llu instr  %5.1f%% necessary\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.totalInstructions),
                    row.slicePercent());
    }
    std::printf("\nbroker::route joins the slice only for forwarded "
                "packets; broker::audit is\npure waste — statistics and "
                "journals nobody consumes, the server-side analog of\n"
                "the browser waste the paper characterizes.\n");
    return 0;
}
