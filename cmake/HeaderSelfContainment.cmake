# ns::archcheck build-time gate (DESIGN.md §12): every public header under
# src/ must be self-contained — it compiles as the sole include of an empty
# TU. One TU is generated per header and built into an OBJECT library, so a
# header that silently leans on its includer's context fails the ordinary
# build, not just the lint tier. ns_lint's architecture pack
# (tools/lint_architecture.cpp) re-checks the same property standalone via
# --compile-headers (used by the fixture tests).

file(GLOB_RECURSE NS_PUBLIC_HEADERS RELATIVE "${CMAKE_SOURCE_DIR}/src"
     CONFIGURE_DEPENDS "${CMAKE_SOURCE_DIR}/src/*.hpp")
list(SORT NS_PUBLIC_HEADERS)

set(NS_HEADER_TU_SOURCES)
foreach(header IN LISTS NS_PUBLIC_HEADERS)
  string(REPLACE "/" "_" tu_stem "${header}")
  set(tu "${CMAKE_BINARY_DIR}/header_tus/tu_${tu_stem}.cpp")
  set(tu_content "// Generated: proves ${header} compiles standalone.\n#include \"${header}\"\n")
  set(existing "")
  if(EXISTS "${tu}")
    file(READ "${tu}" existing)
  endif()
  if(NOT existing STREQUAL tu_content)  # write-if-changed: keep rebuilds incremental
    file(WRITE "${tu}" "${tu_content}")
  endif()
  list(APPEND NS_HEADER_TU_SOURCES "${tu}")
endforeach()

add_library(ns_header_tus OBJECT ${NS_HEADER_TU_SOURCES})
target_include_directories(ns_header_tus PRIVATE "${CMAKE_SOURCE_DIR}/src")
target_link_libraries(ns_header_tus PRIVATE Threads::Threads)
