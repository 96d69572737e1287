# The library's layers, lowest first, and the layers each one links
# directly. src/CMakeLists.txt builds one library per entry,
# stigmergy_<layer> from src/<layer>/, and tools/layering_check.cmake
# fails when a source under src/<layer>/ includes a header from a layer
# outside that entry's transitive links.
set(stig_layers geom par obs sim encode analyze proto core fault fuzz serve
                perf apps viz)

set(stig_geom_links)
set(stig_par_links)
set(stig_obs_links geom)
set(stig_sim_links obs)
set(stig_encode_links obs)
# The analyzers replay framing, so they sit above encode, not in obs.
set(stig_analyze_links encode)
set(stig_proto_links sim encode)
set(stig_core_links proto par)
set(stig_fault_links core)
set(stig_fuzz_links fault analyze)
set(stig_serve_links core)
set(stig_perf_links core)
set(stig_apps_links core)
set(stig_viz_links proto)
