# The compiled half of the benchmark (run.py is the other half),
# included into the top-level directory by hook.cmake. It links only
# the public libraries the campaign and serve tools link.
add_executable(perfbench_driver
    ${CMAKE_CURRENT_LIST_DIR}/driver.cc
    ${CMAKE_CURRENT_LIST_DIR}/campaign_bench.cc
    ${CMAKE_CURRENT_LIST_DIR}/serve_bench.cc
)
target_link_libraries(perfbench_driver PRIVATE mosaic_servelib
                      mosaic_experiments Threads::Threads)
