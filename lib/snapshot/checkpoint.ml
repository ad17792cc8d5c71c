type t = {
  node : int;
  taken_at : Netsim.Time.t;
  image : Bgp.Speaker.capture;
}

let take ~at speaker =
  { node = speaker.Bgp.Speaker.sp_node;
    taken_at = at;
    image = Bgp.Speaker.capture speaker }

let respawn ?bugs t ~net =
  t.image.Bgp.Speaker.cap_respawn ~net
    ~bugs:(Option.value bugs ~default:t.image.Bgp.Speaker.cap_bugs)

let route_count t =
  let rib = t.image.Bgp.Speaker.cap_rib in
  Bgp.Rib.loc_cardinal rib + Bgp.Rib.total_adj_in rib
