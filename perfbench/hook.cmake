# Project-include hook that builds the benchmark driver inside the
# repository's own build. run.py configures the top-level project with
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/hook.cmake
# so the driver is compiled with exactly the options the top-level
# CMakeLists.txt gives the libraries it links (language standard,
# warnings, the SIMD tier probe) and follows any later change to them.
include_guard(GLOBAL)

# driver.cmake runs at the end of the top-level CMakeLists.txt, after
# its add_compile_options() and include_directories() calls; EVAL pins
# the file's path now rather than when the deferred call runs.
cmake_language(EVAL CODE "
    cmake_language(DEFER DIRECTORY \"${CMAKE_SOURCE_DIR}\"
                   CALL include \"${CMAKE_CURRENT_LIST_DIR}/driver.cmake\")")
