// SVG renderer tests: document well-formedness, coordinate mapping (y-flip,
// fit-to-canvas), element emission, figure composition, file output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "geom/angle.hpp"
#include "geom/line.hpp"
#include "geom/sec.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"
#include "viz/figures.hpp"
#include "viz/svg.hpp"

namespace stig::viz {
namespace {

std::size_t count_substr(const std::string& hay, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Every value of attribute `name` in `doc`, in document order.
std::vector<double> attr_values(const std::string& doc,
                                const std::string& name) {
  std::vector<double> out;
  const std::string key = " " + name + "=\"";
  for (std::size_t pos = doc.find(key); pos != std::string::npos;
       pos = doc.find(key, pos + key.size())) {
    out.push_back(std::stod(doc.substr(pos + key.size())));
  }
  return out;
}

TEST(Svg, EmptySceneIsAValidDocument) {
  SvgScene scene;
  const std::string doc = scene.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
}

TEST(Svg, EmitsOneElementPerShape) {
  SvgScene scene;
  scene.circle(geom::Vec2{0, 0}, 1.0, Style{});
  scene.line(geom::Vec2{0, 0}, geom::Vec2{1, 1}, Style{});
  scene.dot(geom::Vec2{2, 2}, 0.1, "red");
  scene.text(geom::Vec2{1, 0}, "hello", 10.0);
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<circle"), 2u);  // circle + dot.
  EXPECT_EQ(count_substr(doc, "<line"), 1u);
  EXPECT_EQ(count_substr(doc, "<text"), 1u);
  EXPECT_NE(doc.find("hello"), std::string::npos);
}

TEST(Svg, EscapesTextContent) {
  SvgScene scene;
  scene.text(geom::Vec2{0, 0}, "a<b & \"c\"", 10.0);
  const std::string doc = scene.str();
  EXPECT_NE(doc.find("a&lt;b &amp; &quot;c&quot;"), std::string::npos);
  EXPECT_EQ(doc.find("a<b"), std::string::npos);
}

TEST(Svg, YAxisIsFlipped) {
  // World point with larger y must appear with *smaller* SVG y.
  SvgScene scene;
  scene.dot(geom::Vec2{0, 0}, 0.01, "black");
  scene.dot(geom::Vec2{0, 10}, 0.01, "black");
  const std::string doc = scene.str();
  // Two cy values; the second dot (y=10) must come out above (smaller cy).
  const auto cy1 = doc.find("cy=\"");
  const auto cy2 = doc.find("cy=\"", cy1 + 1);
  ASSERT_NE(cy2, std::string::npos);
  const double v1 = std::stod(doc.substr(cy1 + 4));
  const double v2 = std::stod(doc.substr(cy2 + 4));
  EXPECT_GT(v1, v2);
}

TEST(Svg, FitsCanvas) {
  SvgScene scene(400.0, 10.0);
  scene.dot(geom::Vec2{-100, -100}, 1, "black");
  scene.dot(geom::Vec2{300, 300}, 1, "black");
  const std::string doc = scene.str();
  // Canvas width is bounded by the requested 400 + margins.
  const auto wpos = doc.find("width=\"");
  const double width = std::stod(doc.substr(wpos + 7));
  EXPECT_LE(width, 401.0);
}

TEST(Svg, PolygonAndPolyline) {
  SvgScene scene;
  scene.polygon(geom::ConvexPolygon::rectangle(0, 0, 2, 1), Style{});
  const std::vector<geom::Vec2> path{geom::Vec2{0, 0}, geom::Vec2{1, 2},
                                     geom::Vec2{2, 0}};
  scene.polyline(path, Style{});
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<polygon"), 1u);
  EXPECT_EQ(count_substr(doc, "<polyline"), 1u);
}

TEST(Svg, GranularDrawsDiametersAndLabels) {
  SvgScene scene;
  const geom::Granular g(geom::Vec2{0, 0}, 2.0, 5, geom::Vec2{0, 1});
  scene.granular(g, Style{}, Style{});
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<line"), 5u);   // One per diameter.
  EXPECT_EQ(count_substr(doc, "<text"), 5u);   // One label per diameter.
  EXPECT_EQ(count_substr(doc, "<circle"), 1u); // The disc.
}

TEST(Svg, DashAndStyleAttributesEmitted) {
  SvgScene scene;
  Style s;
  s.stroke = "#123456";
  s.dash = "4 2";
  s.opacity = 0.5;
  scene.circle(geom::Vec2{0, 0}, 1.0, s);
  const std::string doc = scene.str();
  EXPECT_NE(doc.find("stroke=\"#123456\""), std::string::npos);
  EXPECT_NE(doc.find("stroke-dasharray=\"4 2\""), std::string::npos);
  EXPECT_NE(doc.find("opacity=\"0.500\""), std::string::npos);
}

TEST(Svg, WritesFile) {
  SvgScene scene;
  scene.dot(geom::Vec2{0, 0}, 1, "blue");
  const std::string path = ::testing::TempDir() + "stig_viz_test.svg";
  ASSERT_TRUE(scene.write(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, scene.str());
  std::remove(path.c_str());
}

TEST(Figures, DrawSwarmComposesEverything) {
  sim::Rng rng(3);
  const std::vector<geom::Vec2> pts = sim::scatter(rng, 6, 10.0, 2.0);
  SwarmDrawing what;
  what.voronoi = true;
  what.diameters = 6;
  what.sec = true;
  what.horizon_of = 0;
  what.naming = proto::NamingMode::relative;
  const SvgScene scene = draw_swarm(pts, what);
  const std::string doc = scene.str();
  EXPECT_GE(count_substr(doc, "<polygon"), 6u);          // Voronoi cells.
  EXPECT_GE(count_substr(doc, "<line"), 6u * 6u);        // Diameters.
  EXPECT_GE(count_substr(doc, "<circle"), 6u + 1u + 6u); // Discs+SEC+dots.
}

TEST(Figures, HorizonRunsThroughTheSecCenterWhenTheSecIsNotDrawn) {
  // A swarm far from the origin, drawn with neither the SEC nor relative
  // naming: only its dots and robot 0's horizon line.
  sim::Rng rng(5);
  std::vector<geom::Vec2> pts = sim::scatter(rng, 5, 10.0, 2.0);
  for (geom::Vec2& p : pts) p += geom::Vec2{1000.0, 1000.0};
  SwarmDrawing what;
  what.voronoi = false;
  what.granulars = false;
  what.label_robots = false;
  what.horizon_of = 0;
  const std::string doc = draw_swarm(pts, what).str();
  const std::vector<double> cx = attr_values(doc, "cx");
  const std::vector<double> cy = attr_values(doc, "cy");
  const std::vector<double> x1 = attr_values(doc, "x1");
  const std::vector<double> y1 = attr_values(doc, "y1");
  const std::vector<double> x2 = attr_values(doc, "x2");
  const std::vector<double> y2 = attr_values(doc, "y2");
  ASSERT_EQ(cx.size(), pts.size());
  ASSERT_EQ(x1.size(), 1u);
  // The canvas maps world (x, y) to (a + k x, b - k y); the dots give it.
  std::size_t far = 1;
  for (std::size_t i = 2; i < pts.size(); ++i) {
    if (std::abs(pts[i].x - pts[0].x) > std::abs(pts[far].x - pts[0].x)) {
      far = i;
    }
  }
  const double k = (cx[far] - cx[0]) / (pts[far].x - pts[0].x);
  const double a = cx[0] - k * pts[0].x;
  const double b = cy[0] + k * pts[0].y;
  const geom::Vec2 o = geom::smallest_enclosing_circle(pts).center;
  const geom::Vec2 center{a + k * o.x, b - k * o.y};
  const geom::Vec2 from{x1[0], y1[0]};
  const geom::Vec2 to{x2[0], y2[0]};
  const geom::Vec2 robot0{cx[0], cy[0]};
  ASSERT_GT(geom::dist(from, to), 10.0);  // Not a point.
  const geom::Line horizon = geom::Line::through(from, to);
  EXPECT_LT(horizon.distance(center), 0.01);
  EXPECT_LT(horizon.distance(robot0), 0.01);
}

TEST(Figures, TrajectoriesOnePolylinePerRobot) {
  std::vector<std::vector<geom::Vec2>> history;
  for (int t = 0; t < 10; ++t) {
    history.push_back({geom::Vec2{static_cast<double>(t), 0},
                       geom::Vec2{0, static_cast<double>(t)}});
  }
  SvgScene scene;
  draw_trajectories(scene, history);
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<polyline"), 2u);
}

TEST(Figures, PaletteCycles) {
  EXPECT_EQ(robot_color(0), robot_color(8));
  EXPECT_NE(robot_color(0), robot_color(1));
}

}  // namespace
}  // namespace stig::viz
