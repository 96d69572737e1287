# Every source under src/<layer>/ may include headers only from <layer> and
# the layers it links, directly or through them, as src/layers.cmake lists
# them: the table src/CMakeLists.txt builds the targets from. Fails on such
# an include, on a src/ directory the table lacks, and on a layer that
# links one listed after it (the table lists the layers lowest first, so
# the link graph has no cycle).
#
#   cmake -DSTIG_SRC=src -P tools/layering_check.cmake
cmake_minimum_required(VERSION 3.16)
get_filename_component(STIG_SRC ${STIG_SRC} ABSOLUTE)
include(${STIG_SRC}/layers.cmake)

set(violations)
set(below)
foreach(layer IN LISTS stig_layers)
  foreach(dep IN LISTS stig_${layer}_links)
    if(NOT dep IN_LIST below)
      list(APPEND violations "${layer} links ${dep}, which is not below it")
    endif()
  endforeach()
  list(APPEND below ${layer})
  # stig_reach_<layer>: the layer and all it links, transitively.
  set(reach ${layer})
  foreach(dep IN LISTS stig_${layer}_links)
    list(APPEND reach ${stig_reach_${dep}})
  endforeach()
  list(REMOVE_DUPLICATES reach)
  set(stig_reach_${layer} ${reach})
endforeach()

file(GLOB dirs LIST_DIRECTORIES true RELATIVE ${STIG_SRC} ${STIG_SRC}/*)
set(files_checked 0)
foreach(dir IN LISTS dirs)
  if(NOT IS_DIRECTORY ${STIG_SRC}/${dir})
    continue()
  endif()
  if(NOT dir IN_LIST stig_layers)
    list(APPEND violations "src/${dir}/ is not a layer of src/layers.cmake")
    continue()
  endif()
  file(GLOB sources ${STIG_SRC}/${dir}/*.hpp ${STIG_SRC}/${dir}/*.cpp)
  foreach(source IN LISTS sources)
    math(EXPR files_checked "${files_checked} + 1")
    file(STRINGS ${source} includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*\"[a-z_]+/")
    foreach(line IN LISTS includes)
      string(REGEX REPLACE "^[^\"]*\"([a-z_]+)/.*" "\\1" used "${line}")
      if(NOT used IN_LIST stig_reach_${dir})
        get_filename_component(name ${source} NAME)
        list(APPEND violations
             "src/${dir}/${name}: ${line} (${dir} does not link ${used})")
      endif()
    endforeach()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " text)
  message(FATAL_ERROR "layering violations:\n  ${text}")
endif()
message(STATUS "layering: ${files_checked} sources in their layers")
