/**
 * @file
 * The paper's future-work probe: "the IPC category needs more inspection
 * because execution of instructions belonging to this category might
 * have useful effect on the browser's main process."
 *
 * Upper-bounds that usefulness from the tab side: an IPC-category
 * instruction can only matter to the receiver if it feeds the bytes that
 * actually leave through the channel's sendto. Those are exactly the
 * instructions the syscall-criteria slice admits — so the share of
 * IPC-category instructions inside the syscall slice bounds how much of
 * the category receiver-side analysis could ever reclaim.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace webslice;

int
main()
{
    bench::printHeader(
        "ipc_receiver: bounding the receiver-side usefulness of the IPC "
        "category");

    TextTable table;
    table.setHeader({"Benchmark", "IPC instr", "in pixel slice",
                     "in syscall slice", "payload-bound"});

    const auto categorizer = analysis::Categorizer::chromiumDefault();
    for (const auto &spec : workloads::paperBenchmarks()) {
        const auto profiled = bench::profileSite(spec);
        slicer::SlicerOptions sys_options;
        sys_options.mode = slicer::CriteriaMode::Syscalls;
        sys_options = bench::windowedOptions(profiled.run, sys_options);
        const auto sys_slice = bench::resliceWith(profiled, sys_options);

        // Both slices cover the same window, so their per-function
        // tallies line up slot for slot.
        uint64_t ipc_total = 0, ipc_pixel = 0, ipc_syscall = 0;
        const auto &symtab = profiled.run.machine->symtab();
        const auto &pixel_funcs = profiled.slice.byFunc;
        for (size_t slot = 0; slot < pixel_funcs.size(); ++slot) {
            const std::string name = profiled.cfgs.functionName(
                profiled.slice.funcAt(slot), symtab);
            if (categorizer.categoryOf(name) != "IPC")
                continue;
            ipc_total += pixel_funcs[slot].total;
            ipc_pixel += pixel_funcs[slot].slice;
            ipc_syscall += sys_slice.byFunc[slot].slice;
        }

        auto pct = [&](uint64_t n) {
            return ipc_total == 0
                       ? std::string("-")
                       : format("%.1f%%",
                                100.0 * static_cast<double>(n) /
                                    static_cast<double>(ipc_total));
        };
        table.addRow({spec.name, withCommas(ipc_total), pct(ipc_pixel),
                      pct(ipc_syscall), pct(ipc_syscall)});
    }

    table.render(std::cout);
    std::printf("\nReading: under pixel criteria the IPC category is "
                "(almost) entirely\nunnecessary, as the paper found. The "
                "syscall slice shows how much of it feeds\nbytes the "
                "browser process actually receives — the ceiling on what "
                "receiver-side\nanalysis (the paper's future work) could "
                "reclassify as useful; the rest is\nqueue/bookkeeping "
                "overhead that no receiver ever sees.\n");
    return 0;
}
